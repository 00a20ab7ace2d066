//! The worker pool: construction, installation of root computations, and
//! teardown.

use crate::config::{BuildPoolError, OverflowPolicy, PoisonedPool};
use crate::job::{HeapJob, StackJob};
use crate::latch::LockLatch;
use crate::registry::{worker_main, Inject, Registry, WorkerThread};
use crate::stats::PoolStats;
use nws_topology::{Place, SchedPolicy, Topology, WorkerMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A NUMA-WS worker pool.
///
/// Workers are created at construction with a fixed worker→place map
/// (paper §III-A: affinity is decided at startup and never changes) and run
/// until the pool is dropped. Application code enters through
/// [`install`](Pool::install) and forks with [`join`](crate::join) /
/// [`join_at`](crate::join_at).
///
/// # Example
///
/// ```
/// use numa_ws::{Pool, SchedPolicy};
///
/// let pool = Pool::builder()
///     .workers(4)
///     .places(2)
///     .policy(SchedPolicy::numa_ws())
///     .build()
///     .expect("valid config");
/// let n = pool.install(|| {
///     let (a, b) = numa_ws::join(|| 3, || 4);
///     a + b
/// });
/// assert_eq!(n, 7);
/// ```
pub struct Pool {
    registry: Arc<Registry>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.num_workers())
            .field("places", &self.num_places())
            .field("policy", self.policy())
            .finish()
    }
}

/// Configures and builds a [`Pool`].
#[derive(Clone)]
pub struct PoolBuilder {
    workers: usize,
    places: usize,
    // Read by `Registry::new`.
    pub(crate) policy: SchedPolicy,
    pub(crate) seed: u64,
    pub(crate) stats_enabled: bool,
    pub(crate) deque_capacity: usize,
    pub(crate) record_trace: bool,
    pub(crate) ingress_capacity: Option<usize>,
    pub(crate) overflow: OverflowPolicy,
}

impl std::fmt::Debug for PoolBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuilder")
            .field("workers", &self.workers)
            .field("places", &self.places)
            .field("policy", &self.policy)
            .field("seed", &self.seed)
            .field("stats_enabled", &self.stats_enabled)
            .field("deque_capacity", &self.deque_capacity)
            .field("record_trace", &self.record_trace)
            .field("ingress_capacity", &self.ingress_capacity)
            .field("overflow", &self.overflow)
            .finish()
    }
}

impl Default for PoolBuilder {
    /// The paper's protocol: [`SchedPolicy::numa_ws`] — the same preset
    /// `nws_sim::SimConfig::numa_ws` embeds, so the default pool and the
    /// default simulation describe the same scheduler.
    fn default() -> Self {
        PoolBuilder {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            places: 1,
            policy: SchedPolicy::numa_ws(),
            seed: 0x5EED_CAFE,
            stats_enabled: true,
            deque_capacity: 8192,
            record_trace: false,
            ingress_capacity: None,
            overflow: OverflowPolicy::Block,
        }
    }
}

impl PoolBuilder {
    /// Number of worker threads (`P`). Defaults to the host parallelism.
    pub fn workers(&mut self, n: usize) -> &mut Self {
        self.workers = n;
        self
    }

    /// Number of virtual places (`S`, one per socket in use). Defaults
    /// to 1. The pool's machine is its places: workers round-robin over
    /// them, and the steal bias sees every pair of places at the same
    /// remote distance (21, numactl's one hop). Workers are not pinned
    /// (DESIGN.md §2).
    pub fn places(&mut self, n: usize) -> &mut Self {
        self.places = n;
        self
    }

    /// The scheduling policy — the pool's only scheduler selector:
    /// victim-selection bias, coin-flip protocol, mailbox capacity and
    /// pushback threshold. Pass a preset ([`SchedPolicy::vanilla`],
    /// [`SchedPolicy::numa_ws`], the default) or any ablation cell. This is
    /// the same [`SchedPolicy`] the simulator's `SimConfig` embeds, so one
    /// value sweeps both substrates. The runtime mailbox holds at most one
    /// job (paper §III-B), so [`build`](PoolBuilder::build) rejects
    /// `mailbox_capacity > 1`; larger capacities are a simulator-only
    /// ablation.
    pub fn policy(&mut self, policy: SchedPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// RNG seed for victim selection and coin flips.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Enables/disables time-breakdown accounting (counters stay on).
    /// Disabling removes the `Instant::now` calls from the steal path for
    /// the most overhead-sensitive measurements. Defaults to on.
    pub fn stats(&mut self, enabled: bool) -> &mut Self {
        self.stats_enabled = enabled;
        self
    }

    /// Per-worker deque capacity (slots). When a deque overflows, spawns
    /// degrade gracefully to inline execution. Defaults to 8192.
    pub fn deque_capacity(&mut self, cap: usize) -> &mut Self {
        self.deque_capacity = cap;
        self
    }

    /// Enables DAG trace recording: every spawn edge and execution interval
    /// is logged into per-worker lanes, retrievable with
    /// [`Pool::take_trace`] and replayable through the simulator's
    /// scheduler implementations (see `nws_trace`). Off by default — the
    /// recording hooks then compile down to a `None` check on the work
    /// path.
    pub fn record_trace(&mut self, enabled: bool) -> &mut Self {
        self.record_trace = enabled;
        self
    }

    /// Bounds each per-place ingress queue to `cap` pending jobs (the
    /// service-scale posture: external submission backpressure instead of
    /// unbounded queue growth). What happens at the bound is decided per
    /// entry point: [`Pool::install`] waits for space,
    /// [`Pool::try_spawn`] hands the closure back, and [`Pool::spawn`]
    /// follows [`overflow`](PoolBuilder::overflow). Unbounded by default.
    pub fn ingress_capacity(&mut self, cap: usize) -> &mut Self {
        self.ingress_capacity = Some(cap);
        self
    }

    /// What [`Pool::spawn`] does when a bounded ingress queue is full:
    /// block for space (default) or shed the job. Meaningless without
    /// [`ingress_capacity`](PoolBuilder::ingress_capacity).
    pub fn overflow(&mut self, policy: OverflowPolicy) -> &mut Self {
        self.overflow = policy;
        self
    }

    /// Builds the pool and starts its workers.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPoolError`] when the configuration is inconsistent
    /// (zero workers/places, more places than workers, a zero deque or
    /// ingress capacity, a policy mailbox capacity above 1).
    pub fn build(&self) -> Result<Pool, BuildPoolError> {
        if self.policy.mailbox_capacity > 1 {
            return Err(BuildPoolError::InvalidConfig(format!(
                "mailbox_capacity ({}) must be 0 or 1: the runtime mailbox is a single slot",
                self.policy.mailbox_capacity
            )));
        }
        if self.workers == 0 {
            return Err(BuildPoolError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.places == 0 {
            return Err(BuildPoolError::InvalidConfig("places must be >= 1".into()));
        }
        if self.places > self.workers {
            return Err(BuildPoolError::InvalidConfig(format!(
                "places ({}) cannot exceed workers ({})",
                self.places, self.workers
            )));
        }
        if self.deque_capacity == 0 {
            return Err(BuildPoolError::InvalidConfig("deque_capacity must be >= 1".into()));
        }
        if self.ingress_capacity == Some(0) {
            return Err(BuildPoolError::InvalidConfig("ingress_capacity must be >= 1".into()));
        }
        let topo = Topology::builder()
            .sockets(self.places)
            .cores_per_socket(self.workers.div_ceil(self.places))
            .build()?;
        let map = WorkerMap::new(&topo, self.workers, self.places)?;
        let (registry, owners) = Registry::new(&topo, map, self);
        let mut handles = Vec::with_capacity(self.workers);
        for (index, deque) in owners.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let handle = std::thread::Builder::new()
                .name(format!("nws-worker-{index}"))
                .spawn(move || worker_main(registry, index, deque))
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        registry.started.wait();
        Ok(Pool { registry, handles })
    }
}

impl Pool {
    /// Starts configuring a pool.
    pub fn builder() -> PoolBuilder {
        PoolBuilder::default()
    }

    /// A NUMA-WS pool with `workers` workers on a single place.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPoolError`] for `workers == 0`.
    pub fn new(workers: usize) -> Result<Pool, BuildPoolError> {
        Pool::builder().workers(workers).build()
    }

    /// Runs `f` inside the pool, blocking until it returns its result.
    ///
    /// The root computation enters through the pool's per-place ingress
    /// queues — unhinted roots round-robin across places, and any idle
    /// worker of the chosen place picks the job up within its wake
    /// latency, even while other roots are still running (many concurrent
    /// `install`s make progress together; none waits for another to
    /// finish). Use [`install_at`](Pool::install_at) with `Place(0)` to
    /// reproduce the paper's setup of a single root pinned to the first
    /// socket.
    ///
    /// Calling `install` from inside the same pool runs `f` directly.
    ///
    /// # Blocking hazard
    ///
    /// Calling `install` on pool **B** from a worker thread of a
    /// *different* pool **A** parks that A-worker on a blocking latch until
    /// B finishes `f`. The parked worker does **not** steal or help while
    /// it waits, so pool A effectively shrinks by one worker for the
    /// duration (both pools still make progress — A's other workers keep
    /// draining A's work, and a 1-worker A simply pauses). Prefer
    /// restructuring so cross-pool hand-offs happen from non-worker
    /// threads, or use [`spawn`](Pool::spawn) for fire-and-forget
    /// submission, which never blocks.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.install_at(Place::ANY, f)
    }

    /// As [`install`](Pool::install), but enters at `place` (wrapping
    /// modulo the pool's place count): the root job is queued on that
    /// place's ingress queue and normally starts on one of its workers —
    /// the paper's "root at the first core of the first socket" is
    /// `install_at(Place(0), f)`. The hint is best-effort: if the place
    /// stays busy, an idle worker elsewhere takes the job rather than let
    /// it starve.
    ///
    /// The blocking-hazard note on [`install`](Pool::install) applies.
    ///
    /// # Panics
    ///
    /// Panics with a [`PoisonedPool`] payload if the pool is (or becomes)
    /// poisoned — a worker died from a panic in runtime code — and the root
    /// can no longer complete. A root that the draining workers *do* finish
    /// still returns normally. Panics from `f` itself propagate unchanged,
    /// without poisoning the pool.
    pub fn install_at<F, R>(&self, place: Place, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some(worker) = WorkerThread::current() {
            if Arc::ptr_eq(&worker.registry, &self.registry) {
                return f();
            }
            // A worker of another pool is about to block on this one: like
            // any blocking worker, it first exposes its hidden join frames
            // to its own pool's thieves.
            worker.promote_all();
        }
        if self.registry.is_poisoned() {
            std::panic::panic_any(PoisonedPool::new(self.registry.poison_message()));
        }
        let job = StackJob::new(LockLatch::new(), f);
        // SAFETY: we block on the latch below (or prove the ref can never
        // run again before abandoning it), so the job outlives its
        // execution and is executed at most once.
        let job_ref = unsafe { job.as_job_ref(place) };
        // Installs always wait for ingress space, whatever the overflow
        // policy: degrading a root to inline execution on this external
        // thread would break any nested `join`/`scope`, which require a
        // worker context. Backpressure is the correct service semantic for
        // a blocking call anyway.
        match self.registry.inject(job_ref, true) {
            Inject::Queued => {}
            Inject::Full(_) | Inject::Refused(_) => {
                // A waiting inject only refuses on shutdown or poison.
                // Shutdown is unreachable from safe code (`Drop` takes the
                // pool by value), so report the poisoning; the returned ref
                // targets our own stack job, which no worker has seen —
                // dropping it is sound.
                std::panic::panic_any(PoisonedPool::new(self.registry.poison_message()));
            }
        }
        // Poisoning-aware wait. The common path is one (possibly long)
        // timed wait per 50ms slice with zero extra synchronization; the
        // poisoned path must distinguish "workers are still draining — my
        // root may yet run" from "everyone exited and my root is stranded".
        // Only after the exit gate confirms no job can ever execute again
        // is the unset latch proof of abandonment (and abandoning the stack
        // frame sound: mailboxes are disarmed on poison, and queue `Drop`s
        // never execute leftovers).
        loop {
            if job.latch.wait_for(Duration::from_millis(50)) {
                break;
            }
            if self.registry.is_poisoned() {
                self.registry.exited.wait();
                if job.latch.probe() {
                    break;
                }
                std::panic::panic_any(PoisonedPool::new(self.registry.poison_message()));
            }
        }
        // SAFETY: latch set implies the result was stored.
        match unsafe { job.into_result() } {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Submits `f` to the pool **fire-and-forget**: returns immediately,
    /// without waiting for `f` to run. Equivalent to
    /// [`spawn_at`](Pool::spawn_at) with [`Place::ANY`] (round-robin
    /// ingress).
    ///
    /// Results must travel through whatever channel `f` captures. A panic
    /// inside `f` is caught — the pool survives — then counted
    /// ([`WorkerStatsSnapshot::job_panics`](crate::WorkerStatsSnapshot::job_panics))
    /// and, in debug builds, printed. Dropping the pool runs every job
    /// already spawned before the drop began — spawned work is never leaked
    /// or silently discarded.
    ///
    /// With a bounded [`ingress_capacity`](PoolBuilder::ingress_capacity),
    /// a full queue makes `spawn` block for space under
    /// [`OverflowPolicy::Block`] (default) or drop the closure unrun under
    /// [`OverflowPolicy::Reject`] (counted in
    /// [`PoolStats::sheds`](crate::PoolStats::sheds)); use
    /// [`try_spawn`](Pool::try_spawn) to get the closure back instead.
    ///
    /// # Example
    ///
    /// ```
    /// use numa_ws::sync::atomic::{AtomicU32, Ordering};
    /// use std::sync::Arc;
    ///
    /// let pool = numa_ws::Pool::new(2).expect("pool");
    /// let hits = Arc::new(AtomicU32::new(0));
    /// for _ in 0..8 {
    ///     let hits = Arc::clone(&hits);
    ///     pool.spawn(move || {
    ///         hits.fetch_add(1, Ordering::SeqCst);
    ///     });
    /// }
    /// drop(pool); // waits for the spawned jobs
    /// assert_eq!(hits.load(Ordering::SeqCst), 8);
    /// ```
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.spawn_at(Place::ANY, f);
    }

    /// As [`spawn`](Pool::spawn), but hints the job toward `place`
    /// (wrapping modulo the pool's place count). Spawns always travel
    /// through the ingress queues — never the spawning worker's own deque —
    /// so a fire-and-forget job can be picked up by any worker of its
    /// place immediately, and shutdown can account for every pending job.
    pub fn spawn_at<F>(&self, place: Place, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let job = HeapJob::new(f);
        // SAFETY: workers execute every injected ref exactly once, and the
        // shutdown drain guarantees no ref is abandoned (see worker_main),
        // so the box is always reclaimed; a refused ref is reclaimed or
        // executed right here before it can leak.
        let job_ref = unsafe { job.into_job_ref(place) };
        let wait = self.registry.overflow == OverflowPolicy::Block;
        match self.registry.inject(job_ref, wait) {
            Inject::Queued => {}
            Inject::Full(jr) => {
                // Reject policy, full queue: shed. Reclaim the box so the
                // closure's destructor runs, but the closure never does.
                self.registry.count_shed();
                // SAFETY: the refused ref came back unexecuted and unshared.
                drop(unsafe { HeapJob::<F>::reclaim_unexecuted(jr) });
            }
            Inject::Refused(jr) => {
                if self.registry.is_poisoned() {
                    // No worker will ever run it; shedding (not running on
                    // this thread) keeps poisoned-pool behavior uniform.
                    self.registry.count_shed();
                    // SAFETY: as above.
                    drop(unsafe { HeapJob::<F>::reclaim_unexecuted(jr) });
                } else {
                    // Shutdown race (unreachable from safe code — `Drop`
                    // takes the pool by value): run inline rather than
                    // silently lose a spawn.
                    // SAFETY: as above; executing consumes the ref once.
                    unsafe { jr.execute() };
                }
            }
        }
    }

    /// Attempts a **non-blocking** fire-and-forget submission: like
    /// [`spawn`](Pool::spawn), but when the job cannot be queued right now —
    /// its bounded ingress queue is full, or the pool is shutting down or
    /// poisoned — the closure is handed back as `Err` instead of being
    /// waited, run, or shed. Every `Err` is counted in
    /// [`PoolStats::ingress_rejects`](crate::PoolStats::ingress_rejects).
    ///
    /// This is the load-shedding service entry point: the caller keeps
    /// ownership of rejected work and decides itself whether to retry,
    /// divert, or drop.
    ///
    /// # Errors
    ///
    /// Returns the closure when the pool cannot accept it.
    pub fn try_spawn<F>(&self, f: F) -> Result<(), F>
    where
        F: FnOnce() + Send + 'static,
    {
        self.try_spawn_at(Place::ANY, f)
    }

    /// As [`try_spawn`](Pool::try_spawn), but hints the job toward `place`
    /// (wrapping modulo the pool's place count).
    ///
    /// # Errors
    ///
    /// Returns the closure when the pool cannot accept it.
    pub fn try_spawn_at<F>(&self, place: Place, f: F) -> Result<(), F>
    where
        F: FnOnce() + Send + 'static,
    {
        let job = HeapJob::new(f);
        // SAFETY: as in `spawn_at`; a refused ref is reclaimed below.
        let job_ref = unsafe { job.into_job_ref(place) };
        match self.registry.inject(job_ref, false) {
            Inject::Queued => Ok(()),
            Inject::Full(jr) | Inject::Refused(jr) => {
                self.registry.count_ingress_reject();
                // SAFETY: the refused ref came back unexecuted and
                // unshared, so the box round-trips to its closure.
                Err(unsafe { HeapJob::<F>::reclaim_unexecuted(jr) }.into_func())
            }
        }
    }

    /// Runs `f` inside the pool with a [`Scope`](crate::Scope) for
    /// spawning dynamic task sets; returns when `f` **and every spawned
    /// task** have finished. Shorthand for
    /// `pool.install(|| numa_ws::scope(f))`; see [`scope`](crate::scope).
    ///
    /// ```
    /// use numa_ws::sync::atomic::{AtomicU32, Ordering};
    ///
    /// let pool = numa_ws::Pool::new(2).expect("pool");
    /// let hits = AtomicU32::new(0);
    /// pool.scope(|s| {
    ///     for _ in 0..16 {
    ///         s.spawn(|_| {
    ///             hits.fetch_add(1, Ordering::SeqCst);
    ///         });
    ///     }
    /// });
    /// assert_eq!(hits.into_inner(), 16);
    /// ```
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&crate::Scope<'scope>) -> R + Send,
        R: Send,
    {
        self.install(|| crate::scope(f))
    }

    /// As [`scope`](Pool::scope), but the scope's default spawn hint is
    /// `place` and the body enters the pool at `place`; see
    /// [`scope_at`](crate::scope_at).
    pub fn scope_at<'scope, F, R>(&self, place: Place, f: F) -> R
    where
        F: FnOnce(&crate::Scope<'scope>) -> R + Send,
        R: Send,
    {
        self.install_at(place, || crate::scope_at(place, f))
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.registry.map.num_workers()
    }

    /// Number of virtual places.
    pub fn num_places(&self) -> usize {
        self.registry.map.num_places()
    }

    /// The full scheduling policy this pool runs.
    pub fn policy(&self) -> &SchedPolicy {
        &self.registry.policy
    }

    /// A snapshot of per-worker statistics (plus the pool-level ingress
    /// reject/shed counters).
    pub fn stats(&self) -> PoolStats {
        self.registry.stats()
    }

    /// Whether a worker died from a panic in runtime code (a scheduler bug
    /// or an injected fault). A poisoned pool drains what it can and shuts
    /// down: in-flight installs return or panic with [`PoisonedPool`], new
    /// installs fail fast with the same payload, and spawns are shed. Job
    /// closure panics never poison.
    pub fn is_poisoned(&self) -> bool {
        self.registry.is_poisoned()
    }

    /// Clears all statistics (typically between a warmup and a measured
    /// run).
    pub fn reset_stats(&self) {
        self.registry.reset_stats()
    }

    /// Drains the recorded execution trace into a validated
    /// [`Trace`](nws_trace::Trace), or `None` if the pool was built without
    /// [`record_trace`](PoolBuilder::record_trace).
    ///
    /// Call only at a quiescent point — after every `install`/`scope` has
    /// returned and no `spawn` is in flight — so every recorded task has
    /// both its Start and End events. Draining resets the recorder, so
    /// consecutive calls capture disjoint episodes.
    ///
    /// # Panics
    ///
    /// Panics if the event soup violates the exactly-once contract, which
    /// indicates either a non-quiescent drain or a runtime bug.
    pub fn take_trace(&self, label: &str) -> Option<nws_trace::Trace> {
        let sink = self.registry.trace.as_ref()?;
        // A job's completion is observable (its latch set, its scope count
        // drained, a fire-and-forget closure's channel send) before the
        // worker that ran it records its End. Bridge that gap here: once
        // the workload is quiescent no new brackets can open, so wait out
        // any worker still inside the few instructions between a job's
        // observable completion and its End record. Bounded so a genuine
        // non-quiescent call still reaches the fold's diagnostic panic.
        for _ in 0..1_000_000 {
            if sink.open_brackets() == 0 {
                break;
            }
            nws_sync::thread::yield_now();
        }
        let meta = nws_trace::TraceMeta {
            workers: self.num_workers(),
            places: self.num_places(),
            seed: self.registry.seed,
            label: label.to_string(),
        };
        let events = sink.drain();
        Some(nws_trace::Trace::from_events(meta, &events).expect("trace drained mid-execution"))
    }
}

impl Drop for Pool {
    /// Gracefully shuts the pool down: wakes every sleeping worker, lets
    /// them drain all queued work (installed roots and fire-and-forget
    /// spawns submitted before the drop are always run, never leaked), and
    /// joins the worker threads.
    ///
    /// Do not let the *last* handle to a shared `Arc<Pool>` drop from
    /// inside one of the pool's own jobs: the drop would join the worker
    /// thread it is running on and deadlock. Keep an outside handle alive
    /// until the pool's work is done.
    fn drop(&mut self) {
        self.registry.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_drop() {
        let pool = Pool::new(2).unwrap();
        assert_eq!(pool.num_workers(), 2);
        assert_eq!(pool.num_places(), 1);
        drop(pool);
    }

    #[test]
    fn install_runs_closure() {
        let pool = Pool::new(2).unwrap();
        let r = pool.install(|| 1 + 2);
        assert_eq!(r, 3);
    }

    #[test]
    fn install_multiple_times() {
        let pool = Pool::new(3).unwrap();
        for i in 0..20 {
            assert_eq!(pool.install(move || i * 2), i * 2);
        }
    }

    #[test]
    fn install_propagates_panic() {
        let pool = Pool::new(2).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("root panic"));
        }));
        assert!(r.is_err());
        // The pool must remain usable afterwards.
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn builder_validation() {
        assert!(Pool::builder().workers(0).build().is_err());
        assert!(Pool::builder().workers(2).places(0).build().is_err());
        assert!(Pool::builder().workers(2).places(3).build().is_err());
        for err in [
            Pool::builder().workers(2).deque_capacity(0).build().unwrap_err(),
            Pool::builder().workers(2).ingress_capacity(0).build().unwrap_err(),
        ] {
            assert!(matches!(err, BuildPoolError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn places_map_spreads_workers() {
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        assert_eq!(pool.num_places(), 4);
        let map = &pool.registry.map;
        for p in 0..4 {
            assert_eq!(map.workers_of_place(nws_topology::Place(p)).len(), 2);
        }
    }

    #[test]
    fn single_worker_pool_executes() {
        let pool = Pool::new(1).unwrap();
        assert_eq!(pool.install(|| "ok"), "ok");
    }

    #[test]
    fn classic_mode_pool() {
        let pool = Pool::builder().workers(4).policy(SchedPolicy::vanilla()).build().unwrap();
        assert_eq!(*pool.policy(), SchedPolicy::vanilla());
        assert_eq!(pool.install(|| 5), 5);
    }

    #[test]
    fn builder_accepts_full_policy() {
        use nws_topology::{CoinFlip, StealBias};
        let policy = SchedPolicy {
            coin_flip: CoinFlip::MailboxFirst,
            push_threshold: 9,
            ..SchedPolicy::numa_ws()
        };
        let pool = Pool::builder().workers(4).places(2).policy(policy).build().unwrap();
        assert_eq!(*pool.policy(), policy);
        assert_eq!(pool.install(|| 6), 6);

        let bias_only = SchedPolicy { bias: StealBias::InverseDistance, ..SchedPolicy::vanilla() };
        let pool = Pool::builder().workers(2).policy(bias_only).build().unwrap();
        assert_eq!(pool.policy().mailbox_capacity, 0);
        assert_eq!(pool.install(|| 8), 8);
    }

    #[test]
    fn push_threshold_mutates_policy() {
        let policy = SchedPolicy { push_threshold: 11, ..SchedPolicy::numa_ws() };
        let pool = Pool::builder().workers(2).policy(policy).build().unwrap();
        assert_eq!(pool.policy().push_threshold, 11);
    }

    #[test]
    fn builder_rejects_multi_slot_mailboxes() {
        for capacity in [2, 16] {
            let policy = SchedPolicy { mailbox_capacity: capacity, ..SchedPolicy::numa_ws() };
            let err = Pool::builder().workers(2).policy(policy).build().unwrap_err();
            assert!(matches!(err, BuildPoolError::InvalidConfig(_)), "capacity {capacity}: {err}");
        }
        for capacity in [0, 1] {
            let policy = SchedPolicy { mailbox_capacity: capacity, ..SchedPolicy::numa_ws() };
            let pool = Pool::builder().workers(2).places(2).policy(policy).build().unwrap();
            assert_eq!(pool.policy().mailbox_capacity, capacity);
            let (a, b) = pool.install(|| crate::join_at(|| 3, || 4, Place(1)));
            assert_eq!(a + b, 7, "capacity {capacity} pool runs");
        }
    }

    /// Parks the pool's single worker inside a job until the returned
    /// sender fires, so the test controls exactly when the ingress queue
    /// can drain again. The second channel confirms the worker has *taken*
    /// the job (queue slot freed) before the test proceeds.
    fn gate_single_worker(pool: &Pool) -> std::sync::mpsc::Sender<()> {
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move || {
            started_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        });
        started_rx.recv().unwrap();
        gate_tx
    }

    #[test]
    fn try_spawn_bounces_and_counts_when_ingress_is_full() {
        use nws_sync::atomic::{AtomicBool, Ordering};
        let pool = Pool::builder().workers(1).ingress_capacity(1).build().unwrap();
        let gate = gate_single_worker(&pool);
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        assert!(pool.try_spawn(move || done_tx.send(()).unwrap()).is_ok(), "one slot free");
        assert!(pool.try_spawn(|| ()).is_err(), "queue full: closure handed back");
        let hit = Arc::new(AtomicBool::new(false));
        let hit2 = Arc::clone(&hit);
        let back = pool.try_spawn(move || hit2.store(true, Ordering::SeqCst)).unwrap_err();
        back(); // the returned closure is the original, still runnable
        assert!(hit.load(Ordering::SeqCst));
        gate.send(()).unwrap();
        done_rx.recv().unwrap();
        assert_eq!(pool.stats().ingress_rejects, 2);
        assert_eq!(pool.stats().sheds, 0);
    }

    #[test]
    fn spawn_sheds_under_reject_policy_and_drops_captures() {
        use nws_sync::atomic::{AtomicUsize, Ordering};
        let pool = Pool::builder()
            .workers(1)
            .ingress_capacity(1)
            .overflow(crate::config::OverflowPolicy::Reject)
            .build()
            .unwrap();
        let gate = gate_single_worker(&pool);
        let ran = Arc::new(AtomicUsize::new(0));
        let held = Arc::new(());
        {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Queue full: these two are shed — dropped unrun, captures released.
        for _ in 0..2 {
            let ran = Arc::clone(&ran);
            let held = Arc::clone(&held);
            pool.spawn(move || {
                let _keep = &held;
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(Arc::strong_count(&held), 1, "shed closures must drop their captures");
        assert_eq!(pool.stats().sheds, 2);
        assert_eq!(pool.stats().ingress_rejects, 0);
        gate.send(()).unwrap();
        drop(pool); // drains the one queued job
        assert_eq!(ran.load(Ordering::SeqCst), 1, "shed closures never ran");
    }

    #[test]
    fn job_panics_are_counted_and_do_not_poison() {
        let pool = Pool::new(2).unwrap();
        for _ in 0..4 {
            pool.spawn(|| panic!("job boom"));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while pool.stats().total_job_panics() < 4 {
            assert!(std::time::Instant::now() < deadline, "panics must be counted");
            nws_sync::thread::yield_now();
        }
        assert_eq!(pool.stats().total_job_panics(), 4);
        assert!(!pool.is_poisoned(), "job panics never poison");
        assert_eq!(pool.install(|| 21), 21, "pool stays fully usable");
    }
}
