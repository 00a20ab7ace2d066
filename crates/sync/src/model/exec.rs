//! One model execution: a set of cooperatively scheduled OS threads, a
//! store history per atomic location, and the scheduler that drives them
//! through exactly one interleaving per run.
//!
//! ## Execution model
//!
//! Exactly one model thread runs at a time. Every facade operation —
//! atomic access, fence, lock/unlock, condvar wait/notify, racy-cell
//! access, spawn/join/yield — starts with a *schedule point*: the running
//! thread consults the strategy (DFS tape or seeded RNG) for who runs
//! next, hands off if it lost, and blocks on the shared condvar until
//! re-activated. Because only the active thread touches shared state, the
//! whole execution is deterministic given the sequence of choices, which
//! is what makes failures replayable from a seed or tape.
//!
//! ## Memory model (what is and is not explored)
//!
//! Atomic locations keep their full store history for the execution.
//! Modification order equals execution order (interleaving semantics), but
//! a load may read *any* store not ruled out by coherence or by the
//! loading thread's happens-before view — so relaxed and acquire loads can
//! observe stale values, which is exactly the store-buffering behavior the
//! THE-deque/sleep-layer SeqCst fences exist to prevent. Release/acquire
//! edges, release sequences through RMWs, and release/acquire fences are
//! modeled with vector clocks. SeqCst is approximated by a single global
//! SC view that SeqCst fences join bidirectionally (SeqCst stores publish
//! into it, SeqCst loads absorb it); this is slightly stronger than C++20
//! SC, so the checker can miss bugs that require the finer distinction,
//! but it never reports a false race from it. There is no speculation or
//! load buffering — see DESIGN.md §7 for the full contract.

use super::clock::{VClock, MAX_THREADS};
use super::{Failure, FailureKind};
use crate::splitmix64;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as RawOrd};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard};

use std::sync::atomic::Ordering;

/// Panic payload used to unwind model threads out of an aborted execution.
pub(crate) struct ExecAbort;

fn abort_execution() -> ! {
    panic::panic_any(ExecAbort)
}

/// Global execution epoch source: lazily (re-)registers primitives that
/// outlive one execution.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Per-primitive registration slot: which execution this primitive was
/// last registered with, and its location id there. Lives inline in every
/// facade atomic/mutex/condvar/cell so registration is lazy and cheap.
pub(crate) struct LocSlot {
    epoch: AtomicU64,
    id: AtomicUsize,
}

impl LocSlot {
    pub(crate) const fn new() -> Self {
        LocSlot { epoch: AtomicU64::new(0), id: AtomicUsize::new(0) }
    }
}

impl std::fmt::Debug for LocSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocSlot").finish_non_exhaustive()
    }
}

thread_local! {
    static TLS_CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The current thread's model-execution context, if it is a model thread
/// of a live execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<ExecShared>,
    pub(crate) tid: usize,
}

pub(crate) fn cur_ctx() -> Option<Ctx> {
    TLS_CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    TLS_CTX.with(|c| *c.borrow_mut() = ctx);
}

/// One store in a location's modification order.
#[derive(Clone)]
struct Store {
    value: u64,
    /// The message view an acquire load of this store synchronizes with
    /// (the storing thread's view for release stores, its view as of the
    /// last release fence for relaxed stores, joined with the predecessor
    /// message for RMWs — release-sequence continuation).
    msg: VClock,
    /// Stamp of the store event itself: (thread, that thread's clock).
    who: usize,
    clk: u32,
}

/// An atomic location: modification order plus per-thread coherence floor
/// (the oldest store each thread may still legally read).
struct Location {
    stores: Vec<Store>,
    floor: [usize; MAX_THREADS],
    /// Consecutive non-newest reads per thread, for the eventual-visibility
    /// bound (see [`STALE_READ_CAP`]).
    stale: [u8; MAX_THREADS],
}

/// Eventual visibility: after this many consecutive stale reads of one
/// location, a thread is forced to read the newest store. C++ guarantees
/// stores become visible in finite time, so an unbounded stale streak is
/// unimplementable behavior — and bounding it is also what keeps spin
/// loops from livelocking the DFS.
const STALE_READ_CAP: u8 = 3;

/// A model mutex.
#[derive(Default)]
struct MutexState {
    locked_by: Option<usize>,
    /// Joined view of every critical section so far; acquirers absorb it.
    release_view: VClock,
}

/// A model condvar: who is waiting (FIFO for notify_one).
#[derive(Default)]
struct CvState {
    waiters: Vec<usize>,
}

/// A racy cell (facade `UnsafeCell`): last write plus reads-since-write,
/// checked for happens-before on every access.
#[derive(Default)]
struct CellState {
    write: Option<(usize, u32)>,
    reads: [Option<u32>; MAX_THREADS],
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RunState {
    Runnable,
    BlockedMutex(usize),
    BlockedCv { cv: usize, mutex: usize, timed: bool },
    BlockedJoin(usize),
    Finished,
}

pub(crate) struct ThreadSt {
    view: VClock,
    clock: u32,
    /// View as of the last release fence (message view for relaxed stores).
    fence_rel: VClock,
    /// Join of the message views of every load so far (absorbed by an
    /// acquire fence).
    acq_pending: VClock,
    run: RunState,
    final_view: VClock,
    cv_timed_out: bool,
}

impl ThreadSt {
    fn new(view: VClock) -> Self {
        ThreadSt {
            view,
            clock: 0,
            fence_rel: VClock::ZERO,
            acq_pending: VClock::ZERO,
            run: RunState::Runnable,
            final_view: VClock::ZERO,
            cv_timed_out: false,
        }
    }

    fn bump(&mut self, tid: usize) {
        self.clock += 1;
        self.view.set(tid, self.clock);
    }
}

/// The choice driver for one execution.
pub(crate) enum Chooser {
    Random { state: u64 },
    Dfs { tape: Vec<TapeEntry>, pos: usize },
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct TapeEntry {
    pub(crate) taken: u32,
    pub(crate) options: u32,
}

pub(crate) struct ExecState {
    threads: Vec<ThreadSt>,
    locations: Vec<Location>,
    mutexes: Vec<MutexState>,
    condvars: Vec<CvState>,
    cells: Vec<CellState>,
    sc_view: VClock,
    active: Option<usize>,
    chooser: Chooser,
    /// Every choice made this execution (the replay schedule).
    log: Vec<u32>,
    steps: usize,
    max_steps: usize,
    preemptions: usize,
    preemption_bound: Option<usize>,
    failure: Option<Failure>,
    seed: Option<u64>,
    schedule_index: usize,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExecState {
    fn choose(&mut self, options: u32) -> u32 {
        debug_assert!(options > 0);
        let c = match &mut self.chooser {
            Chooser::Random { state } => (splitmix64(state) % u64::from(options)) as u32,
            Chooser::Dfs { tape, pos } => {
                let c = if *pos < tape.len() {
                    debug_assert_eq!(
                        tape[*pos].options, options,
                        "DFS replay diverged: nondeterministic execution"
                    );
                    tape[*pos].taken
                } else {
                    tape.push(TapeEntry { taken: 0, options });
                    0
                };
                *pos += 1;
                c
            }
        };
        if self.log.len() < (1 << 16) {
            self.log.push(c);
        }
        c
    }

    fn is_enabled(&self, tid: usize) -> bool {
        match self.threads[tid].run {
            RunState::Runnable => true,
            RunState::BlockedMutex(m) => self.mutexes[m].locked_by.is_none(),
            RunState::BlockedJoin(j) => self.threads[j].run == RunState::Finished,
            RunState::BlockedCv { .. } | RunState::Finished => false,
        }
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.run == RunState::Finished)
    }
}

pub(crate) struct ExecShared {
    pub(crate) epoch: u64,
    state: StdMutex<ExecState>,
    cv: StdCondvar,
}

type Guard<'a> = StdGuard<'a, ExecState>;

fn acquire_ish(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn release_ish(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl ExecShared {
    pub(crate) fn new(
        chooser: Chooser,
        max_steps: usize,
        preemption_bound: Option<usize>,
        seed: Option<u64>,
        schedule_index: usize,
    ) -> Arc<ExecShared> {
        let epoch = EPOCH.fetch_add(1, RawOrd::Relaxed);
        Arc::new(ExecShared {
            epoch,
            state: StdMutex::new(ExecState {
                threads: vec![ThreadSt::new(VClock::ZERO)],
                locations: Vec::new(),
                mutexes: Vec::new(),
                condvars: Vec::new(),
                cells: Vec::new(),
                sc_view: VClock::ZERO,
                active: Some(0),
                chooser,
                log: Vec::new(),
                steps: 0,
                max_steps,
                preemptions: 0,
                preemption_bound,
                failure: None,
                seed,
                schedule_index,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
        })
    }

    fn lock(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records the first failure and wakes everyone so they can unwind.
    fn fail(&self, st: &mut Guard<'_>, kind: FailureKind) {
        if st.failure.is_none() {
            st.failure = Some(Failure {
                kind,
                schedule: st.log.clone(),
                seed: st.seed,
                schedule_index: st.schedule_index,
            });
        }
        self.cv.notify_all();
    }

    pub(crate) fn note_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        if payload.downcast_ref::<ExecAbort>().is_some() {
            return;
        }
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        let mut st = self.lock();
        self.fail(&mut st, FailureKind::Panic(msg));
    }

    fn wait_until_active<'a>(&'a self, mut st: Guard<'a>, tid: usize) -> Guard<'a> {
        loop {
            if st.failure.is_some() {
                drop(st);
                abort_execution();
            }
            if st.active == Some(tid) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Picks the next thread to run. `None` means nothing left to schedule
    /// (all finished, or a deadlock was just recorded).
    fn pick_next(&self, st: &mut Guard<'_>, cur: usize, voluntary: bool) -> Option<usize> {
        let n = st.threads.len();
        let mut enabled: Vec<usize> = (0..n).filter(|&t| st.is_enabled(t)).collect();
        let mut timeout_tier = false;
        if enabled.is_empty() {
            // Timeouts fire only at quiescence: a timed condvar wait can
            // elapse only when no other thread can make progress. This
            // models "the timeout is slower than any active thread" and
            // keeps the DFS tree finite for timeout-retry loops.
            enabled = (0..n)
                .filter(|&t| matches!(st.threads[t].run, RunState::BlockedCv { timed: true, .. }))
                .collect();
            timeout_tier = true;
            if enabled.is_empty() {
                if st.all_finished() {
                    return None;
                }
                let stuck: Vec<String> = (0..n)
                    .filter(|&t| st.threads[t].run != RunState::Finished)
                    .map(|t| format!("thread {t}: {:?}", st.threads[t].run))
                    .collect();
                self.fail(st, FailureKind::Deadlock(stuck.join("; ")));
                return None;
            }
        }
        let cur_enabled = !timeout_tier && enabled.contains(&cur);
        let options: Vec<usize> = if cur_enabled && voluntary {
            // A voluntary yield (spin_loop / yield_now) always hands off
            // when any other thread can run, and never counts as a
            // preemption. Re-running a spin iteration with nobody else
            // having moved reproduces the same observation, so keeping
            // "self" as an option would only let the DFS branch into
            // exponentially many equivalent spin repetitions.
            let mut o: Vec<usize> = enabled.iter().copied().filter(|&t| t != cur).collect();
            if o.is_empty() {
                o.push(cur);
            }
            o
        } else if cur_enabled {
            let mut o = vec![cur];
            if st.preemption_bound.is_none_or(|b| st.preemptions < b) {
                o.extend(enabled.iter().copied().filter(|&t| t != cur));
            }
            o
        } else {
            enabled
        };
        let choice = st.choose(options.len() as u32) as usize;
        let next = options[choice];
        if cur_enabled && !voluntary && next != cur {
            st.preemptions += 1;
        }
        Some(next)
    }

    /// The schedule point run at the start of every facade operation.
    fn schedule_point<'a>(&'a self, mut st: Guard<'a>, tid: usize, voluntary: bool) -> Guard<'a> {
        if st.failure.is_some() {
            drop(st);
            abort_execution();
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let steps = st.max_steps;
            self.fail(
                &mut st,
                FailureKind::Livelock(format!("no termination within {steps} schedule points")),
            );
            drop(st);
            abort_execution();
        }
        match self.pick_next(&mut st, tid, voluntary) {
            Some(next) if next != tid => {
                st.active = Some(next);
                self.cv.notify_all();
                self.wait_until_active(st, tid)
            }
            Some(_) => st,
            None => {
                // Deadlock recorded (we were the running thread, so "all
                // finished" is impossible here).
                drop(st);
                abort_execution();
            }
        }
    }

    /// Hands the token to some other thread after `cur` blocked/finished.
    fn reschedule(&self, st: &mut Guard<'_>, cur: usize) {
        st.active = self.pick_next(st, cur, false);
        self.cv.notify_all();
    }

    // ---- registration -------------------------------------------------

    fn register_atomic(&self, st: &mut Guard<'_>, slot: &LocSlot, init: u64) -> usize {
        if slot.epoch.load(RawOrd::Relaxed) == self.epoch {
            return slot.id.load(RawOrd::Relaxed);
        }
        let id = st.locations.len();
        st.locations.push(Location {
            stores: vec![Store { value: init, msg: VClock::ZERO, who: 0, clk: 0 }],
            floor: [0; MAX_THREADS],
            stale: [0; MAX_THREADS],
        });
        slot.id.store(id, RawOrd::Relaxed);
        slot.epoch.store(self.epoch, RawOrd::Relaxed);
        id
    }

    fn register<T: Default>(&self, slot: &LocSlot, table: &mut Vec<T>) -> usize {
        if slot.epoch.load(RawOrd::Relaxed) == self.epoch {
            return slot.id.load(RawOrd::Relaxed);
        }
        let id = table.len();
        table.push(T::default());
        slot.id.store(id, RawOrd::Relaxed);
        slot.epoch.store(self.epoch, RawOrd::Relaxed);
        id
    }

    // ---- atomics ------------------------------------------------------

    pub(crate) fn atomic_load(&self, tid: usize, slot: &LocSlot, init: u64, ord: Ordering) -> u64 {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let lid = self.register_atomic(&mut st, slot, init);
        let view = st.threads[tid].view;
        let loc = &mut st.locations[lid];
        // Coherence floor: may not read below the last store already read,
        // nor below the newest store this thread's view already knows of.
        let mut base = loc.floor[tid];
        for i in (base + 1..loc.stores.len()).rev() {
            let s = &loc.stores[i];
            if view.knows(s.who, s.clk) {
                base = i;
                break;
            }
        }
        let newest = loc.stores.len() - 1;
        let span = loc.stores.len() - base;
        let idx = if loc.stale[tid] >= STALE_READ_CAP {
            newest
        } else if span > 1 {
            let c = st.choose(span as u32) as usize;
            base + c
        } else {
            base
        };
        let loc = &mut st.locations[lid];
        loc.floor[tid] = idx;
        loc.stale[tid] = if idx == newest { 0 } else { loc.stale[tid] + 1 };
        let store = loc.stores[idx].clone();
        let t = &mut st.threads[tid];
        t.acq_pending.join(&store.msg);
        if acquire_ish(ord) {
            t.view.join(&store.msg);
        }
        if ord == Ordering::SeqCst {
            let sc = st.sc_view;
            st.threads[tid].view.join(&sc);
        }
        store.value
    }

    pub(crate) fn atomic_store(
        &self,
        tid: usize,
        slot: &LocSlot,
        init: u64,
        value: u64,
        ord: Ordering,
        raw: impl FnOnce(u64),
    ) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let lid = self.register_atomic(&mut st, slot, init);
        let t = &mut st.threads[tid];
        t.bump(tid);
        let msg = if release_ish(ord) {
            t.view
        } else {
            let mut m = t.fence_rel;
            m.set(tid, t.clock);
            m
        };
        let (who, clk) = (tid, t.clock);
        if ord == Ordering::SeqCst {
            let view = st.threads[tid].view;
            st.sc_view.join(&view);
        }
        let loc = &mut st.locations[lid];
        loc.stores.push(Store { value, msg, who, clk });
        loc.floor[tid] = loc.stores.len() - 1;
        loc.stale[tid] = 0;
        raw(value);
    }

    /// Read-modify-write: reads the newest store in modification order
    /// (RMW atomicity), then appends a new store if `f` returns `Some`.
    /// `(success, failure)` are the orderings of the two outcomes.
    /// Returns the value read.
    pub(crate) fn atomic_rmw(
        &self,
        tid: usize,
        slot: &LocSlot,
        init: u64,
        (success, failure): (Ordering, Ordering),
        f: impl FnOnce(u64) -> Option<u64>,
        raw: impl FnOnce(u64),
    ) -> u64 {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let lid = self.register_atomic(&mut st, slot, init);
        let loc = &mut st.locations[lid];
        let idx = loc.stores.len() - 1;
        loc.floor[tid] = idx;
        loc.stale[tid] = 0;
        let prev = loc.stores[idx].clone();
        match f(prev.value) {
            Some(new) => {
                let t = &mut st.threads[tid];
                t.acq_pending.join(&prev.msg);
                if acquire_ish(success) {
                    t.view.join(&prev.msg);
                }
                if success == Ordering::SeqCst {
                    let sc = st.sc_view;
                    st.threads[tid].view.join(&sc);
                }
                let t = &mut st.threads[tid];
                t.bump(tid);
                let mut msg = if release_ish(success) {
                    t.view
                } else {
                    let mut m = t.fence_rel;
                    m.set(tid, t.clock);
                    m
                };
                // Release-sequence continuation: an acquire read of this
                // RMW also synchronizes with the store it replaced.
                msg.join(&prev.msg);
                let (who, clk) = (tid, t.clock);
                if success == Ordering::SeqCst {
                    let view = st.threads[tid].view;
                    st.sc_view.join(&view);
                }
                let loc = &mut st.locations[lid];
                loc.stores.push(Store { value: new, msg, who, clk });
                loc.floor[tid] = loc.stores.len() - 1;
                loc.stale[tid] = 0;
                raw(new);
            }
            None => {
                let t = &mut st.threads[tid];
                t.acq_pending.join(&prev.msg);
                if acquire_ish(failure) {
                    t.view.join(&prev.msg);
                }
                if failure == Ordering::SeqCst {
                    let sc = st.sc_view;
                    st.threads[tid].view.join(&sc);
                }
            }
        }
        prev.value
    }

    pub(crate) fn fence(&self, tid: usize, ord: Ordering) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        match ord {
            Ordering::Acquire => {
                let p = st.threads[tid].acq_pending;
                st.threads[tid].view.join(&p);
            }
            Ordering::Release => {
                st.threads[tid].fence_rel = st.threads[tid].view;
            }
            Ordering::AcqRel => {
                let p = st.threads[tid].acq_pending;
                let t = &mut st.threads[tid];
                t.view.join(&p);
                t.fence_rel = t.view;
            }
            Ordering::SeqCst => {
                // The SC-fence pairing: join the global SC view both ways,
                // so of any two SC fences the later (in execution order)
                // observes everything sequenced before the earlier.
                let p = st.threads[tid].acq_pending;
                st.threads[tid].view.join(&p);
                let sc = st.sc_view;
                st.threads[tid].view.join(&sc);
                let view = st.threads[tid].view;
                st.sc_view.join(&view);
                st.threads[tid].fence_rel = view;
            }
            _ => panic!("unsupported fence ordering {ord:?}"),
        }
    }

    // ---- racy cells ---------------------------------------------------

    pub(crate) fn cell_read(&self, tid: usize, slot: &LocSlot) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let cid = {
            let ExecState { cells, .. } = &mut *st;
            self.register(slot, cells)
        };
        let view = st.threads[tid].view;
        if let Some((w, c)) = st.cells[cid].write {
            if !view.knows(w, c) {
                self.fail(
                    &mut st,
                    FailureKind::DataRace(format!(
                        "thread {tid} read a cell concurrently written by thread {w} \
                         (write not ordered before the read)"
                    )),
                );
                drop(st);
                abort_execution();
            }
        }
        st.threads[tid].bump(tid);
        let clk = st.threads[tid].clock;
        st.cells[cid].reads[tid] = Some(clk);
    }

    /// A *speculative* cell read: a schedule point, but neither checked
    /// against nor recorded for the race detector. For the Chase-Lev
    /// steal's read-then-CAS-validate idiom, where a losing thief's slot
    /// read may race a reusing owner write *by design* — the copied bits
    /// are discarded unless the CAS that follows proves the read was not
    /// racing. Using this for any read whose value is consumed without
    /// such validation silently disables the race detector for it.
    pub(crate) fn cell_read_speculative(&self, tid: usize, slot: &LocSlot) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let _ = {
            let ExecState { cells, .. } = &mut *st;
            self.register(slot, cells)
        };
        st.threads[tid].bump(tid);
    }

    pub(crate) fn cell_write(&self, tid: usize, slot: &LocSlot) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let cid = {
            let ExecState { cells, .. } = &mut *st;
            self.register(slot, cells)
        };
        let view = st.threads[tid].view;
        if let Some((w, c)) = st.cells[cid].write {
            if !view.knows(w, c) {
                self.fail(
                    &mut st,
                    FailureKind::DataRace(format!(
                        "thread {tid} wrote a cell concurrently written by thread {w}"
                    )),
                );
                drop(st);
                abort_execution();
            }
        }
        for (r, read) in st.cells[cid].reads.iter().enumerate() {
            if let Some(c) = read {
                if !view.knows(r, *c) {
                    self.fail(
                        &mut st,
                        FailureKind::DataRace(format!(
                            "thread {tid} wrote a cell concurrently read by thread {r} \
                             (read not ordered before the write)"
                        )),
                    );
                    drop(st);
                    abort_execution();
                }
            }
        }
        st.threads[tid].bump(tid);
        let clk = st.threads[tid].clock;
        let cell = &mut st.cells[cid];
        cell.write = Some((tid, clk));
        cell.reads = [None; MAX_THREADS];
    }

    // ---- mutexes ------------------------------------------------------

    fn acquire_mutex(&self, st: &mut Guard<'_>, tid: usize, mid: usize) {
        debug_assert!(st.mutexes[mid].locked_by.is_none());
        st.mutexes[mid].locked_by = Some(tid);
        let rv = st.mutexes[mid].release_view;
        st.threads[tid].view.join(&rv);
    }

    pub(crate) fn mutex_lock(&self, tid: usize, slot: &LocSlot) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let mid = {
            let ExecState { mutexes, .. } = &mut *st;
            self.register(slot, mutexes)
        };
        if st.mutexes[mid].locked_by.is_some() {
            st.threads[tid].run = RunState::BlockedMutex(mid);
            self.reschedule(&mut st, tid);
            st = self.wait_until_active(st, tid);
            st.threads[tid].run = RunState::Runnable;
        }
        self.acquire_mutex(&mut st, tid, mid);
    }

    /// Unlock. Never panics and never blocks: it runs from guard drops,
    /// including drops during a panic unwind.
    pub(crate) fn mutex_unlock(&self, tid: usize, slot: &LocSlot) {
        let mut st = self.lock();
        if st.failure.is_some() {
            return;
        }
        if slot.epoch.load(RawOrd::Relaxed) != self.epoch {
            return;
        }
        let mid = slot.id.load(RawOrd::Relaxed);
        debug_assert_eq!(st.mutexes[mid].locked_by, Some(tid));
        let view = st.threads[tid].view;
        st.mutexes[mid].release_view.join(&view);
        st.mutexes[mid].locked_by = None;
        // No schedule point here (this must stay panic-free for unwinds);
        // the scheduler sees the freed mutex at the next schedule point.
        self.cv.notify_all();
    }

    // ---- condvars -----------------------------------------------------

    /// Waits on `cv_slot`, releasing the mutex in `mutex_slot`, which the
    /// caller must hold. Returns `true` on timeout (only possible for
    /// `timed` waits). The mutex is re-acquired before returning.
    pub(crate) fn cv_wait(
        &self,
        tid: usize,
        cv_slot: &LocSlot,
        mutex_slot: &LocSlot,
        timed: bool,
    ) -> bool {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let cid = {
            let ExecState { condvars, .. } = &mut *st;
            self.register(cv_slot, condvars)
        };
        let mid = {
            let ExecState { mutexes, .. } = &mut *st;
            self.register(mutex_slot, mutexes)
        };
        debug_assert_eq!(st.mutexes[mid].locked_by, Some(tid));
        // Atomically release the mutex and start waiting.
        let view = st.threads[tid].view;
        st.mutexes[mid].release_view.join(&view);
        st.mutexes[mid].locked_by = None;
        st.threads[tid].run = RunState::BlockedCv { cv: cid, mutex: mid, timed };
        st.threads[tid].cv_timed_out = false;
        st.condvars[cid].waiters.push(tid);
        self.reschedule(&mut st, tid);
        st = self.wait_until_active(st, tid);
        // Activated either after a notify (run is BlockedMutex, mutex
        // free) or as a timeout at quiescence (run is still BlockedCv).
        if let RunState::BlockedCv { .. } = st.threads[tid].run {
            st.condvars[cid].waiters.retain(|&w| w != tid);
            st.threads[tid].cv_timed_out = true;
            if st.mutexes[mid].locked_by.is_some() {
                st.threads[tid].run = RunState::BlockedMutex(mid);
                self.reschedule(&mut st, tid);
                st = self.wait_until_active(st, tid);
            }
        }
        st.threads[tid].run = RunState::Runnable;
        self.acquire_mutex(&mut st, tid, mid);
        st.threads[tid].cv_timed_out
    }

    pub(crate) fn cv_notify(&self, tid: usize, cv_slot: &LocSlot, all: bool) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        let cid = {
            let ExecState { condvars, .. } = &mut *st;
            self.register(cv_slot, condvars)
        };
        // FIFO pick, deterministically: the schedule already decides wait
        // order, so a nondeterministic pick here would only blow up the
        // DFS tree without adding behaviors the mutex handoff can produce.
        let count = if all { st.condvars[cid].waiters.len() } else { 1 };
        for _ in 0..count {
            if st.condvars[cid].waiters.is_empty() {
                break;
            }
            let w = st.condvars[cid].waiters.remove(0);
            if let RunState::BlockedCv { mutex, .. } = st.threads[w].run {
                st.threads[w].run = RunState::BlockedMutex(mutex);
                st.threads[w].cv_timed_out = false;
            }
        }
    }

    // ---- threads ------------------------------------------------------

    pub(crate) fn yield_now(&self, tid: usize) {
        let st = self.lock();
        let st = self.schedule_point(st, tid, true);
        drop(st);
    }

    pub(crate) fn spawn<F, T>(
        self: &Arc<Self>,
        parent: usize,
        f: F,
    ) -> (usize, Arc<parking_lot::Mutex<Option<T>>>)
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let mut st = self.lock();
        st = self.schedule_point(st, parent, false);
        let tid = st.threads.len();
        assert!(tid < MAX_THREADS, "model execution exceeds {MAX_THREADS} threads");
        st.threads[parent].bump(parent);
        let mut view = st.threads[parent].view;
        view.set(tid, 0);
        st.threads.push(ThreadSt::new(view));
        let result = Arc::new(parking_lot::Mutex::new(None));
        let result2 = Arc::clone(&result);
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("nws-model-{tid}"))
            .spawn(move || {
                set_ctx(Some(Ctx { exec: Arc::clone(&exec), tid }));
                let r = panic::catch_unwind(AssertUnwindSafe(|| {
                    exec.initial_wait(tid);
                    f()
                }));
                match r {
                    Ok(v) => *result2.lock() = Some(v),
                    Err(p) => exec.note_panic(p),
                }
                exec.finish_thread(tid);
                set_ctx(None);
            })
            .expect("spawning a model thread failed");
        st.os_handles.push(handle);
        (tid, result)
    }

    fn initial_wait(&self, tid: usize) {
        let st = self.lock();
        let st = self.wait_until_active(st, tid);
        drop(st);
    }

    pub(crate) fn finish_thread(&self, tid: usize) {
        let mut st = self.lock();
        let view = st.threads[tid].view;
        st.threads[tid].final_view = view;
        st.threads[tid].run = RunState::Finished;
        if st.all_finished() {
            st.active = None;
        } else {
            self.reschedule(&mut st, tid);
        }
        self.cv.notify_all();
    }

    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        let mut st = self.lock();
        st = self.schedule_point(st, tid, false);
        if st.threads[target].run != RunState::Finished {
            st.threads[tid].run = RunState::BlockedJoin(target);
            self.reschedule(&mut st, tid);
            st = self.wait_until_active(st, tid);
            st.threads[tid].run = RunState::Runnable;
        }
        let fv = st.threads[target].final_view;
        st.threads[tid].view.join(&fv);
    }

    // ---- runner entry points ------------------------------------------

    /// Runs `f` as model thread 0 of this fresh execution, schedules every
    /// spawned thread to completion, and returns the outcome.
    pub(crate) fn run_root(self: &Arc<Self>, f: &(dyn Fn() + Sync)) -> RunOutcome {
        set_ctx(Some(Ctx { exec: Arc::clone(self), tid: 0 }));
        let r = panic::catch_unwind(AssertUnwindSafe(f));
        if let Err(p) = r {
            self.note_panic(p);
        }
        self.finish_thread(0);
        set_ctx(None);
        // Pump until every model thread has finished (threads of an
        // aborted execution unwind at their next schedule point).
        let mut st = self.lock();
        loop {
            if st.all_finished() {
                break;
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, std::time::Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = g;
        }
        let handles = std::mem::take(&mut st.os_handles);
        let failure = st.failure.take();
        let chooser = std::mem::replace(&mut st.chooser, Chooser::Random { state: 0 });
        drop(st);
        for h in handles {
            let _ = h.join();
        }
        RunOutcome { failure, chooser }
    }
}

pub(crate) struct RunOutcome {
    pub(crate) failure: Option<Failure>,
    pub(crate) chooser: Chooser,
}
