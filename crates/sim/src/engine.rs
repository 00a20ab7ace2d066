//! The discrete-event scheduler engine.
//!
//! Executes a [`Dag`] on a simulated NUMA [`Topology`] under the NUMA-WS
//! algorithm (paper Figure 5). Its mechanisms (mailboxes, lazy pushback,
//! biased victims, coin flip) are switched by the policy in [`SimConfig`],
//! so ablations can toggle each one; with vanilla knobs the same engine
//! runs classic work stealing (paper Figure 2).
//!
//! Time advances per worker: each simulation turn picks the worker with the
//! smallest local clock (ties by index) and lets it perform one action —
//! execute a strand, spawn, sync, return, or take one trip through the
//! scheduling loop. A turn moves only the acting worker's clock, so a
//! min-tree over `(clock, index)` ([`TurnTree`]) names the next worker in
//! `O(log P)`. Deques and mailboxes are plain sequential state because
//! turns are serialized; the concurrency *protocol* (who may take what,
//! when) follows the paper's pseudocode exactly.
//!
//! While no deque or mailbox holds an entry, every steal attempt fails and
//! touches nothing but its thief's random stream, clock and the attempt
//! count, so idle workers' turns commute with each other. The engine then
//! runs an idle worker's attempts back to back up to the next busy
//! worker's turn instead of rescanning the clocks after each one; the
//! outcome is the one turn-by-turn stepping gives (DESIGN.md §2).
//!
//! A stepped steal attempt that fails draws the worker's next victim and
//! coin at once, so the draw is off the chain from one turn to the next.
//! The worker's next attempt consumes it; a take from its own mailbox or a
//! fast-forward discards it and rewinds the stream, so every draw lands
//! where turn-by-turn drawing puts it.
//!
//! The engine makes the paper's scheduling decisions through the policy
//! methods the runtime's steal loop calls: `SchedPolicy::steal_target` for
//! an idle worker's victim and coin, `push_home` and `pushback` for a
//! ready full frame that belongs elsewhere. It supplies only mechanism.

use crate::config::SimConfig;
use crate::dag::{Dag, FrameId, Step};
use crate::memory::MemorySystem;
use crate::report::{Counters, ScheduleLog, SimReport, WorkerTimes};
use nws_topology::{
    worker_rng_seed, Deposit, Place, ProbeCosts, StealDistribution, Topology, TopologyError,
    WorkerMap,
};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;

// The scheduling costs of the one simulated machine, in cycles (DESIGN.md
// §2 "One simulated machine"). Work-path costs (spawn push, pop, trivial
// sync) are small constants; steal-path costs are larger and, for
// inter-socket operations, scale with the numactl distance — the model's
// rendering of "incur overhead on the thief, not the worker".

/// Deque push at a spawn (work path).
const SPAWN_PUSH: u64 = 5;
/// Deque pop at a spawned child's return (work path).
const POP: u64 = 5;
/// A sync that was never stolen (work path, no-op check).
const SYNC_TRIVIAL: u64 = 1;
/// Promoting a stolen frame to a full frame (steal path).
const PROMOTE: u64 = 120;
/// A steal attempt's base cost (lock + probe), plus
/// [`STEAL_PER_DISTANCE`] per unit of distance to the victim.
const STEAL_BASE: u64 = 40;
/// Extra cycles per unit of numactl distance for a steal probe or a
/// mailbox push attempt.
const STEAL_PER_DISTANCE: u64 = 3;
/// CHECKSYNC on a stolen frame (non-trivial sync).
const SYNC_NONTRIVIAL: u64 = 60;
/// Suspending a frame at an unsuccessful sync.
const SUSPEND: u64 = 80;
/// CHECKPARENT when returning to a stolen parent.
const CHECK_PARENT: u64 = 40;
/// One mailbox push attempt (PUSHBACK step), plus the distance term.
const PUSH_ATTEMPT: u64 = 60;
/// Taking a frame out of a mailbox (own or a victim's).
const MAILBOX_TAKE: u64 = 30;

// The work-first principle: each work-path cost is below the steal-path
// cost it stands against.
const _: () = assert!(SPAWN_PUSH < PROMOTE && POP < STEAL_BASE && SYNC_TRIVIAL < SYNC_NONTRIVIAL);

/// A ready continuation: a frame plus the step index to resume at (the
/// element of the engine's deques and mailboxes).
type Cont = (usize, u32);

/// What a worker is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    /// Executing `frame` at step index `step`.
    Exec { frame: usize, step: u32 },
    /// In the scheduling loop, about to CHECKPARENT of `parent`.
    CheckParent { parent: usize },
    /// In the scheduling loop, about to attempt a steal.
    Steal,
}

/// A victim and coin drawn at a failed stepped attempt for the worker's
/// next one, with the worker's random stream as it stood before the draw
/// (see [`Engine::step_steal`]).
#[derive(Debug, Clone)]
struct Held {
    victim: u32,
    try_mailbox: bool,
    before: SmallRng,
}

/// One configured simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation<'a> {
    topo: &'a Topology,
    dag: &'a Dag,
    cfg: SimConfig,
    map: WorkerMap,
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation of `dag` on `topo` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the worker count does not fit the
    /// machine.
    pub fn new(topo: &'a Topology, cfg: SimConfig, dag: &'a Dag) -> Result<Self, TopologyError> {
        let map = WorkerMap::new(topo, cfg.workers, topo.packed_places(cfg.workers))?;
        Ok(Simulation { topo, dag, cfg, map })
    }

    /// Runs the simulation to completion and reports the breakdown.
    pub fn run(&self) -> SimReport {
        Engine::new(self.topo, self.dag, &self.cfg, self.map.clone()).run()
    }

    /// The serial-elision time `TS`: the same strands in depth-first serial
    /// order on worker 0, with the memory model active but **no** parallel
    /// overhead (no deque pushes/pops, no sync checks) — exactly the
    /// paper's definition of the elision baseline.
    pub fn serial_elision(topo: &Topology, dag: &Dag) -> u64 {
        let map = WorkerMap::new(topo, 1, 1).expect("one worker always fits");
        let mut mem = MemorySystem::new(topo, &map, dag.regions_vec());
        let mut total = 0u64;
        let mut stack: Vec<Cont> = Vec::new();
        let mut cur: Cont = (dag.root().0, 0);
        loop {
            let frame = dag.frame(FrameId(cur.0));
            if (cur.1 as usize) == frame.steps.len() {
                match stack.pop() {
                    Some(c) => {
                        cur = c;
                        continue;
                    }
                    None => break,
                }
            }
            match &frame.steps[cur.1 as usize] {
                Step::Strand(s) => {
                    total += s.cycles;
                    for t in &s.touches {
                        total += mem.access(0, t, total);
                    }
                    cur.1 += 1;
                }
                Step::Spawn(c) => {
                    stack.push((cur.0, cur.1 + 1));
                    cur = (c.0, 0);
                }
                Step::Sync => cur.1 += 1,
            }
        }
        total
    }
}

/// A min-tree over the workers' `(clock, index)`: the root holds the
/// worker whose turn is next. Leaves sit at `n..n + P` for `n` the next
/// power of two; padding leaves hold `u64::MAX` and never win.
#[derive(Debug)]
struct TurnTree {
    /// `(clock << index_bits) | index` per node, so one integer compare (a
    /// conditional move, not a branch) orders by clock, then index.
    nodes: Vec<u64>,
    /// Bits that hold an index below `n`.
    index_bits: u32,
}

impl TurnTree {
    /// `workers` workers, every clock at 0.
    fn new(workers: usize) -> Self {
        let n = workers.next_power_of_two();
        let mut tree = TurnTree { nodes: vec![u64::MAX; 2 * n], index_bits: n.trailing_zeros() };
        tree.rebuild(&vec![0; workers]);
        tree
    }

    /// Worker `w`'s key at `clock`. No real key ties a padding leaf's
    /// `u64::MAX`: a padding leaf's index is at least `P`, and a real key
    /// whose index bits are all ones belongs to a `P` with no padding.
    ///
    /// # Panics
    ///
    /// Panics if `clock` needs more than `64 - index_bits` bits (past
    /// 2^58 cycles at P = 64), instead of wrapping into the index.
    #[inline]
    fn key(&self, clock: u64, w: usize) -> u64 {
        assert!(clock.leading_zeros() >= self.index_bits, "clock {clock} overflows the turn key");
        (clock << self.index_bits) | w as u64
    }

    /// The worker with the smallest `(clock, index)`.
    #[inline]
    fn next(&self) -> usize {
        (self.nodes[1] & ((1 << self.index_bits) - 1)) as usize
    }

    /// Worker `w`'s clock became `clock`: refresh its leaf-to-root path.
    /// The path's new minimum travels up in a register and meets only
    /// each sibling, so no level waits on the store of the level below.
    #[inline]
    fn update(&mut self, w: usize, clock: u64) {
        let mut i = self.nodes.len() / 2 + w;
        let mut key = self.key(clock, w);
        self.nodes[i] = key;
        while i > 1 {
            key = key.min(self.nodes[i ^ 1]);
            i /= 2;
            self.nodes[i] = key;
        }
    }

    /// Any number of clocks changed: refill every leaf and node in place.
    fn rebuild(&mut self, clocks: &[u64]) {
        let n = self.nodes.len() / 2;
        for (w, &clock) in clocks.iter().enumerate() {
            self.nodes[n + w] = self.key(clock, w);
        }
        for i in (1..n).rev() {
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }
}

struct Engine<'a> {
    dag: &'a Dag,
    cfg: &'a SimConfig,
    map: WorkerMap,
    mem: MemorySystem,

    clocks: Vec<u64>,
    /// Who acts next; kept in step with `clocks`.
    turns: TurnTree,
    work: Vec<u64>,
    sched: Vec<u64>,
    states: Vec<WState>,
    deques: Vec<VecDeque<Cont>>,
    mailboxes: Vec<VecDeque<Cont>>,
    rngs: Vec<SmallRng>,
    /// Each idle worker's draw for its next attempt, made at its last
    /// failed one; `rngs` is already past it.
    held: Vec<Option<Held>>,
    dists: Vec<Option<StealDistribution>>,
    /// Each thief's probe cost, [`STEAL_BASE`] plus the hop to the victim,
    /// folded into its distribution's guide table for the idle
    /// fast-forward, which needs the cost but not the victim.
    probe_costs: Vec<Option<ProbeCosts>>,
    /// The distance term of a steal probe or push attempt from worker `a`
    /// to worker `b`, `STEAL_PER_DISTANCE · distance`, at `hops[a * P + b]`.
    hops: Vec<u64>,
    /// Entries in all deques and mailboxes together: zero means every
    /// steal attempt fails.
    stealable: usize,

    join: Vec<u32>,
    stolen: Vec<bool>,
    suspended: Vec<Option<u32>>,

    counters: Counters,
    schedule: Option<ScheduleLog>,
    done_at: Option<u64>,
}

impl<'a> Engine<'a> {
    fn new(topo: &'a Topology, dag: &'a Dag, cfg: &'a SimConfig, map: WorkerMap) -> Self {
        let p = map.num_workers();
        let mem = MemorySystem::new(topo, &map, dag.regions_vec());
        // Built by the shared policy layer — the same method the runtime's
        // registry calls, so a seeded policy selects victims identically
        // on both substrates.
        let dists: Vec<_> = (0..p).map(|w| cfg.policy.victim_distribution(topo, &map, w)).collect();
        let hops: Vec<u64> = (0..p * p)
            .map(|i| {
                let d = topo.distances().distance(map.place_of(i / p), map.place_of(i % p));
                STEAL_PER_DISTANCE * d as u64
            })
            .collect();
        let probe_costs = dists
            .iter()
            .enumerate()
            .map(|(w, dist)| dist.as_ref().map(|d| d.probe_costs(|v| STEAL_BASE + hops[w * p + v])))
            .collect();
        let mut states = vec![WState::Steal; p];
        states[0] = WState::Exec { frame: dag.root().0, step: 0 };
        Engine {
            schedule: cfg.log_schedule.then(|| ScheduleLog {
                steals: Vec::new(),
                executors: vec![None; dag.num_frames()],
            }),
            dag,
            cfg,
            mem,
            clocks: vec![0; p],
            turns: TurnTree::new(p),
            work: vec![0; p],
            sched: vec![0; p],
            states,
            deques: (0..p).map(|_| VecDeque::new()).collect(),
            mailboxes: (0..p).map(|_| VecDeque::new()).collect(),
            rngs: (0..p).map(|w| SmallRng::seed_from_u64(worker_rng_seed(cfg.seed, w))).collect(),
            held: vec![None; p],
            dists,
            probe_costs,
            hops,
            stealable: 0,
            join: vec![0; dag.num_frames()],
            stolen: vec![false; dag.num_frames()],
            suspended: vec![None; dag.num_frames()],
            counters: Counters::default(),
            done_at: None,
            map,
        }
    }

    fn run(mut self) -> SimReport {
        while self.done_at.is_none() {
            self.pass();
        }
        self.report()
    }

    /// One pass of the engine loop: the next turn, or a whole
    /// fast-forward.
    #[inline]
    fn pass(&mut self) {
        // Min-clock worker acts next; ties broken by index for
        // determinism.
        let w = self.turns.next();
        debug_assert_eq!(Some(w), (0..self.clocks.len()).min_by_key(|&i| (self.clocks[i], i)));
        match self.states[w] {
            WState::Steal if self.stealable == 0 => {
                self.fast_forward_idle();
                self.turns.rebuild(&self.clocks);
            }
            WState::Steal => {
                let clock = self.step_steal(w);
                self.turns.update(w, clock);
            }
            WState::Exec { frame, step } => {
                self.step_exec(w, frame, step);
                self.turns.update(w, self.clocks[w]);
            }
            WState::CheckParent { parent } => {
                self.step_check_parent(w, parent);
                self.turns.update(w, self.clocks[w]);
            }
        }
    }

    fn report(self) -> SimReport {
        let p = self.clocks.len();
        let makespan = self.done_at.unwrap();
        let workers = (0..p)
            .map(|w| {
                let busy = self.work[w] + self.sched[w];
                WorkerTimes {
                    work: self.work[w],
                    sched: self.sched[w],
                    idle: makespan.saturating_sub(busy),
                }
            })
            .collect();
        SimReport {
            makespan,
            workers,
            counters: self.counters,
            class_lines: self.mem.class_lines,
            schedule: self.schedule,
        }
    }

    /// The policy's lazy-pushing decision for frame `f` held by worker
    /// `w`: its home place when it must go back, `None` when `w` runs it.
    fn push_home(&self, w: usize, f: usize) -> Option<Place> {
        self.cfg.policy.push_home(&self.map, w, self.dag.frame(FrameId(f)).place)
    }

    /// Nothing is stealable and an idle worker has the next turn. Until a
    /// busy worker (one outside the scheduling loop) acts, every steal
    /// attempt fails and changes only its thief's random stream and clock
    /// and the attempt count, so idle workers' attempts commute. Each idle
    /// worker therefore makes, back to back, every attempt that precedes
    /// the next busy turn — the smallest `(clock, index)` outside the loop.
    /// It draws exactly as [`step_steal`](Self::step_steal) does: the
    /// victim's value, whose probe cost its [`ProbeCosts`] gives without
    /// naming the victim, then the coin's when the policy draws one. A
    /// worker's held draw is discarded: its stream restarts where that draw
    /// began. The stream, clock and attempt count live in locals until it
    /// is done.
    fn fast_forward_idle(&mut self) {
        debug_assert_eq!(
            self.stealable,
            self.deques.iter().chain(&self.mailboxes).map(VecDeque::len).sum::<usize>()
        );
        let p = self.clocks.len();
        let (busy_clock, busy) = (0..p)
            .filter(|&w| self.states[w] != WState::Steal)
            .map(|w| (self.clocks[w], w))
            .min()
            .expect("with nothing stealable, some worker holds the unfinished work");
        let attempts = if self.cfg.policy.draws_coin() {
            self.idle_attempts::<true>(busy_clock, busy)
        } else {
            self.idle_attempts::<false>(busy_clock, busy)
        };
        self.counters.steal_attempts += attempts;
    }

    /// [`fast_forward_idle`](Self::fast_forward_idle)'s attempts, with
    /// [`SchedPolicy::draws_coin`](nws_topology::SchedPolicy::draws_coin)
    /// as a constant so that the attempt loop holds no test of it.
    fn idle_attempts<const COIN: bool>(&mut self, busy_clock: u64, busy: usize) -> u64 {
        let p = self.clocks.len();
        let mut attempts = 0;
        for w in (0..p).filter(|&w| self.states[w] == WState::Steal) {
            let costs = self.probe_costs[w].as_ref().expect("a lone worker never enters the loop");
            // `(clock, w) < (busy_clock, busy)` as one compare.
            let limit = busy_clock + u64::from(w < busy);
            let mut rng = match self.held[w].take() {
                Some(held) => held.before,
                None => self.rngs[w].clone(),
            };
            let mut clock = self.clocks[w];
            while clock < limit {
                clock += costs.cost(rng.next_u64());
                if COIN {
                    rng.next_u64();
                }
                attempts += 1;
            }
            self.rngs[w] = rng;
            self.clocks[w] = clock;
        }
        attempts
    }

    fn step_exec(&mut self, w: usize, frame: usize, step: u32) {
        let def = self.dag.frame(FrameId(frame));
        if (step as usize) == def.steps.len() {
            self.frame_returns(w, frame);
            return;
        }
        match &def.steps[step as usize] {
            Step::Strand(s) => {
                let mut cost = s.cycles;
                for t in &s.touches {
                    cost += self.mem.access(w, t, self.clocks[w]);
                }
                self.clocks[w] += cost;
                self.work[w] += cost;
                self.states[w] = WState::Exec { frame, step: step + 1 };
            }
            Step::Spawn(c) => {
                // Push the continuation; it becomes stealable (Fig 2 l.1-2).
                self.deques[w].push_back((frame, step + 1));
                self.stealable += 1;
                self.join[frame] += 1;
                let cost = SPAWN_PUSH;
                self.clocks[w] += cost;
                self.work[w] += cost;
                self.states[w] = WState::Exec { frame: c.0, step: 0 };
            }
            Step::Sync => self.step_sync(w, frame, step),
        }
    }

    fn step_sync(&mut self, w: usize, frame: usize, step: u32) {
        if !self.stolen[frame] {
            // Never stolen: the sync is a no-op (Fig 2 l.18).
            let cost = SYNC_TRIVIAL;
            self.clocks[w] += cost;
            self.work[w] += cost;
            self.states[w] = WState::Exec { frame, step: step + 1 };
            return;
        }
        // Full frame: CHECKSYNC (Fig 2 l.11 / Fig 5 l.3).
        self.counters.nontrivial_syncs += 1;
        let cost = SYNC_NONTRIVIAL;
        self.clocks[w] += cost;
        self.sched[w] += cost;
        if self.join[frame] == 0 {
            // Sync succeeds; the frame is no longer "stolen since its last
            // successful sync".
            self.stolen[frame] = false;
            self.resume_full(w, (frame, step + 1));
        } else {
            // Outstanding children: suspend and go steal (Fig 2 l.15-17).
            self.suspended[frame] = Some(step);
            self.counters.suspensions += 1;
            let cost = SUSPEND;
            self.clocks[w] += cost;
            self.sched[w] += cost;
            self.states[w] = WState::Steal;
        }
    }

    fn frame_returns(&mut self, w: usize, frame: usize) {
        if let Some(log) = &mut self.schedule {
            log.executors[frame] = Some(w);
        }
        if frame == self.dag.root().0 {
            self.done_at = Some(self.clocks[w]);
            return;
        }
        let parent = self.dag.frame(FrameId(frame)).parent.expect("non-root frame has a parent").0;
        self.join[parent] -= 1;
        if let Some((pf, pstep)) = self.deques[w].pop_back() {
            self.stealable -= 1;
            // Parent not stolen: resume it (Fig 2 l.3-5). The tail entry is
            // necessarily our parent's continuation.
            debug_assert_eq!(pf, parent, "deque tail must be the parent continuation");
            let cost = POP;
            self.clocks[w] += cost;
            self.work[w] += cost;
            self.states[w] = WState::Exec { frame: pf, step: pstep };
        } else {
            // Parent stolen: return to the scheduling loop and check it
            // (Fig 2 l.6-8, l.20-22).
            self.states[w] = WState::CheckParent { parent };
        }
    }

    fn step_check_parent(&mut self, w: usize, parent: usize) {
        let cost = CHECK_PARENT;
        self.clocks[w] += cost;
        self.sched[w] += cost;
        if self.join[parent] == 0 {
            if let Some(s) = self.suspended[parent] {
                // We are the last returning child; the parent resumes at
                // the continuation of its sync (Fig 5 l.21-24).
                self.suspended[parent] = None;
                self.stolen[parent] = false;
                self.counters.parent_resumes += 1;
                self.resume_full(w, (parent, s + 1));
                return;
            }
        }
        self.states[w] = WState::Steal;
    }

    /// A worker holds a ready full frame: under a mailbox policy a frame
    /// hinted for another place goes home through one PUSHBACK episode
    /// (Fig 5 l.5-11 / l.21-26), run by the policy layer; otherwise, or
    /// when delivery fails past the threshold, the worker runs it here
    /// (load balancing wins). Each attempt costs `push_attempt` plus the
    /// hop to its target and lands if the target's FIFO mailbox has room.
    fn resume_full(&mut self, w: usize, cont: Cont) {
        let kept = self.push_home(w, cont.0).map_or(Some(cont), |home| {
            let p = self.clocks.len();
            let rng = &mut self.rngs[w];
            let kept = self.cfg.policy.pushback(
                self.map.workers_of_place(home),
                cont,
                || rng.next_u64(),
                |r, cont| {
                    self.counters.push_attempts += 1;
                    let cost = PUSH_ATTEMPT + self.hops[w * p + r];
                    self.clocks[w] += cost;
                    self.sched[w] += cost;
                    if self.mailboxes[r].len() >= self.cfg.policy.mailbox_capacity {
                        return Deposit::Full(cont);
                    }
                    self.mailboxes[r].push_back(cont);
                    self.stealable += 1;
                    self.counters.push_deliveries += 1;
                    Deposit::Landed
                },
            );
            self.counters.push_failures += u64::from(kept.is_some());
            kept
        });
        self.states[w] = match kept {
            Some((frame, step)) => WState::Exec { frame, step },
            None => WState::Steal,
        };
    }

    /// One trip through the scheduling loop: own mailbox first, then one
    /// steal attempt. A failed attempt (the common case) is decided by one
    /// test of the victim's occupancy, without a branch on the coin, and
    /// draws the worker's next victim and coin (see the module docs).
    /// Returns `w`'s clock, so that a failure's new clock reaches the turn
    /// tree in a register.
    fn step_steal(&mut self, w: usize) -> u64 {
        let held = self.held[w].take();
        // Check own mailbox first (Fig 5 l.25-26): anything there is for
        // our place by construction.
        if let Some(cont) = self.mailboxes[w].pop_front() {
            if let Some(held) = held {
                self.rngs[w] = held.before;
            }
            self.stealable -= 1;
            let cost = MAILBOX_TAKE;
            self.clocks[w] += cost;
            self.sched[w] += cost;
            self.counters.mailbox_takes += 1;
            self.states[w] = WState::Exec { frame: cont.0, step: cont.1 };
            return self.clocks[w];
        }
        let (victim, try_mailbox) = match held {
            Some(held) => {
                debug_assert_eq!(self.redraw(w, &held), (held.victim as usize, held.try_mailbox));
                (held.victim as usize, held.try_mailbox)
            }
            None => self.draw(w),
        };
        let probe_cost = STEAL_BASE + self.hops[w * self.clocks.len() + victim];
        self.counters.steal_attempts += 1;
        let parked = self.mailboxes[victim].len();
        if self.deques[victim].len() | (usize::from(try_mailbox) * parked) == 0 {
            // Failed steal: idle cycles (accounted via makespan minus busy).
            let clock = self.clocks[w] + probe_cost;
            self.clocks[w] = clock;
            let before = self.rngs[w].clone();
            let (victim, try_mailbox) = self.draw(w);
            self.held[w] = Some(Held { victim: victim as u32, try_mailbox, before });
            return clock;
        }

        if try_mailbox && parked > 0 {
            let cont = self.mailboxes[victim].pop_front().expect("the mailbox holds an entry");
            self.stealable -= 1;
            self.counters.mailbox_takes += 1;
            // Earmarked for our socket: take it. Earmarked elsewhere:
            // relay it with lazy pushing; if the episode exhausts the
            // threshold, take it ourselves.
            let take = self.push_home(w, cont.0).map_or(MAILBOX_TAKE, |_| 0);
            self.clocks[w] += probe_cost + take;
            self.sched[w] += probe_cost + take;
            self.resume_full(w, cont);
            return self.clocks[w];
        }
        // The victim's mailbox is empty or the coin chose its deque
        // (outcome 1): a successful steal, promoted to a full frame.
        let cont = self.deques[victim].pop_front().expect("the deque holds an entry");
        self.stealable -= 1;
        self.stolen[cont.0] = true;
        self.counters.steals += 1;
        if let Some(log) = &mut self.schedule {
            log.steals.push((w, victim, cont.0));
        }
        if self.map.place_of(victim) != self.map.place_of(w) {
            self.counters.remote_steals += 1;
        }
        let cost = probe_cost + PROMOTE;
        self.clocks[w] += cost;
        self.sched[w] += cost;
        self.resume_full(w, cont);
        self.clocks[w]
    }

    /// The Figure 5 steal decision, shared with the runtime's steal loop:
    /// victim first, then (under a fair coin) the coin, from `w`'s stream.
    #[inline]
    fn draw(&mut self, w: usize) -> (usize, bool) {
        let dist = self.dists[w].as_ref().expect("a lone worker never enters the scheduling loop");
        let rng = &mut self.rngs[w];
        self.cfg.policy.steal_target(dist, || rng.next_u64())
    }

    /// `held` drawn again from the stream position it saved; checks that
    /// the stream ends where `w`'s stands now.
    fn redraw(&self, w: usize, held: &Held) -> (usize, bool) {
        let dist = self.dists[w].as_ref().expect("a lone worker never enters the scheduling loop");
        let mut rng = held.before.clone();
        let drawn = self.cfg.policy.steal_target(dist, || rng.next_u64());
        assert_eq!(rng.next_u64(), self.rngs[w].clone().next_u64(), "worker {w}'s stream moved");
        drawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{tree, DagBuilder, Strand};
    use crate::memory::{PagePolicy, Touch};
    use nws_topology::{presets, CoinFlip, SchedPolicy};

    #[test]
    fn serial_chain_single_worker() {
        let mut b = DagBuilder::new();
        b.frame(Place::ANY, |b| _ = b.compute(100).compute(50));
        let dag = b.build();
        let topo = presets::paper_machine();
        let sim = Simulation::new(&topo, SimConfig::vanilla(1), &dag).unwrap();
        let r = sim.run();
        assert_eq!(r.makespan, 150);
        assert_eq!(r.workers[0].work, 150);
        assert_eq!(r.workers[0].sched, 0);
        assert_eq!(r.counters.steals, 0);
    }

    #[test]
    fn turn_tree_picks_the_linear_minimum() {
        let mut rng = SmallRng::seed_from_u64(0x7EE5);
        for p in [1usize, 2, 3, 32, 33, 64] {
            // The largest clock a key holds next to an index below P's
            // power of two.
            let max_clock = u64::MAX >> p.next_power_of_two().trailing_zeros();
            // From 0, and from a few cycles below the packing limit, with
            // clocks that stop at it (ties at the largest keys).
            for (start, rounds) in [(0, 2_000), (max_clock - 16, 400)] {
                let mut clocks = vec![start; p];
                let mut tree = TurnTree::new(p);
                tree.rebuild(&clocks);
                let linear_min = |clocks: &[u64]| (0..p).min_by_key(|&i| (clocks[i], i)).unwrap();
                let bump = |c: &mut u64, by: u64| *c = c.saturating_add(by).min(max_clock);
                for round in 0..rounds {
                    if round % 50 == 49 {
                        // Several clocks move at once, as in a fast-forward.
                        for c in clocks.iter_mut() {
                            bump(c, rng.next_u64() % 3);
                        }
                        tree.rebuild(&clocks);
                    } else {
                        // One clock moves, the next worker's or any other's,
                        // often onto a tie (small bumps on clocks that start
                        // equal).
                        let w =
                            if round % 2 == 0 { tree.next() } else { rng.next_u64() as usize % p };
                        bump(&mut clocks[w], rng.next_u64() % 4);
                        tree.update(w, clocks[w]);
                    }
                    assert_eq!(tree.next(), linear_min(&clocks), "P={p} round {round}: {clocks:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows the turn key")]
    fn turn_tree_rejects_a_clock_past_its_key() {
        // At P = 33 the index takes 6 bits, so clocks must fit in 58.
        TurnTree::new(33).update(32, (u64::MAX >> 6) + 1);
    }

    #[test]
    fn idle_attempts_stop_at_the_busy_workers_turn() {
        // Worker 0 runs one strand of `cycles` while worker 1, with nothing
        // to steal, probes worker 0 at a fixed cost. Worker 1 acts while
        // `(clock, 1) < (cycles, 0)`, i.e. while its clock is below
        // `cycles`: a clock tie goes to the lower index, so an attempt that
        // lands exactly on `cycles` is the last one.
        let topo = presets::paper_machine();
        let cfg = SimConfig::vanilla(2);
        let map = WorkerMap::new(&topo, 2, topo.packed_places(2)).unwrap();
        let hops = topo.distances().distance(map.place_of(1), map.place_of(0)) as u64;
        let probe = STEAL_BASE + STEAL_PER_DISTANCE * hops;
        for (cycles, attempts) in [(100 * probe, 100), (100 * probe + 1, 101)] {
            let mut b = DagBuilder::new();
            b.frame(Place::ANY, |b| _ = b.compute(cycles));
            let dag = b.build();
            let r = Simulation::new(&topo, cfg.clone(), &dag).unwrap().run();
            assert_eq!(r.makespan, cycles);
            assert_eq!(r.counters.steal_attempts, attempts, "strand of {cycles} cycles");
        }
    }

    #[test]
    fn one_worker_equals_work_plus_spawn_overhead() {
        let dag = tree(64, 100);
        let topo = presets::paper_machine();
        let r = Simulation::new(&topo, SimConfig::vanilla(1), &dag).unwrap().run();
        // T1 = work + (push + pop) per spawn + trivial sync per sync.
        let spawns = dag.num_spawns();
        let syncs = 63; // one per internal frame
        let expect = dag.work() + spawns * (SPAWN_PUSH + POP) + syncs * SYNC_TRIVIAL;
        assert_eq!(r.makespan, expect);
        assert_eq!(r.counters.nontrivial_syncs, 0, "no steals on one worker");
    }

    #[test]
    fn serial_elision_strips_overhead() {
        let dag = tree(64, 100);
        let topo = presets::paper_machine();
        let ts = Simulation::serial_elision(&topo, &dag);
        assert_eq!(ts, dag.work());
    }

    #[test]
    fn parallel_run_completes_and_speeds_up() {
        let dag = tree(256, 2_000);
        let topo = presets::paper_machine();
        let t1 = Simulation::new(&topo, SimConfig::vanilla(1), &dag).unwrap().run().makespan;
        let r32 = Simulation::new(&topo, SimConfig::vanilla(32), &dag).unwrap().run();
        assert!(r32.counters.steals > 0, "32 workers must steal");
        let speedup = t1 as f64 / r32.makespan as f64;
        assert!(speedup > 8.0, "speedup {speedup:.2} too low for 256-way parallel work");
    }

    #[test]
    fn numa_ws_run_completes_same_dag() {
        let dag = tree(256, 2_000);
        let topo = presets::paper_machine();
        let r = Simulation::new(&topo, SimConfig::numa_ws(32), &dag).unwrap().run();
        let t1 = Simulation::new(&topo, SimConfig::numa_ws(1), &dag).unwrap().run().makespan;
        assert!(r.makespan < t1, "32 workers must beat 1");
    }

    #[test]
    fn deterministic_given_seed() {
        let dag = tree(128, 500);
        let topo = presets::paper_machine();
        let a = Simulation::new(&topo, SimConfig::numa_ws(16).with_seed(7), &dag).unwrap().run();
        let b = Simulation::new(&topo, SimConfig::numa_ws(16).with_seed(7), &dag).unwrap().run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.counters, b.counters);
        let c = Simulation::new(&topo, SimConfig::numa_ws(16).with_seed(8), &dag).unwrap().run();
        assert_ne!(
            (a.makespan, a.counters.steal_attempts),
            (c.makespan, c.counters.steal_attempts),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn hinted_frames_run_with_pushback_traffic() {
        // Four hinted subtrees, one per place; NUMA-WS should generate
        // pushes and mailbox hits; classic must not.
        let mut b = DagBuilder::new();
        let data = b.alloc("d", 64, PagePolicy::Chunked { chunks: 4 });
        b.frame(Place(0), |b| {
            for q in 0..4u64 {
                let touch =
                    Touch { region: data, start_page: q * 16, pages: 16, lines_per_page: 64 };
                let leaf = Strand { cycles: 20_000, touches: vec![touch] };
                b.frame(Place(q as usize), |b| _ = b.strand(leaf));
            }
            b.sync();
        });
        let dag = b.build();

        let topo = presets::paper_machine();
        let numa = Simulation::new(&topo, SimConfig::numa_ws(32), &dag).unwrap().run();
        let classic = Simulation::new(&topo, SimConfig::vanilla(32), &dag).unwrap().run();
        assert_eq!(classic.counters.push_attempts, 0);
        assert_eq!(classic.counters.mailbox_takes, 0);
        assert!(
            numa.counters.push_deliveries > 0,
            "NUMA-WS should push hinted frames toward their places: {:?}",
            numa.counters
        );
    }

    #[test]
    fn draws_made_ahead_keep_every_outcome() {
        // The DAG of `hinted_frames_run_with_pushback_traffic`, run pass by
        // pass under every ablation preset and coin rule. A held draw must
        // survive each way its worker's next turn can go: discarded for the
        // own mailbox, consumed by an attempt whose take then draws a
        // PUSHBACK episode from the same stream, or discarded by a
        // fast-forward. Debug builds re-derive every consumed draw.
        let mut b = DagBuilder::new();
        let data = b.alloc("d", 64, PagePolicy::Chunked { chunks: 4 });
        b.frame(Place(0), |b| {
            for q in 0..4u64 {
                let touch =
                    Touch { region: data, start_page: q * 16, pages: 16, lines_per_page: 64 };
                let leaf = Strand { cycles: 20_000, touches: vec![touch] };
                b.frame(Place(q as usize), |b| _ = b.strand(leaf));
            }
            b.sync();
        });
        let dag = b.build();
        let topo = presets::paper_machine();
        let coins = [CoinFlip::Fair, CoinFlip::MailboxFirst, CoinFlip::DequeOnly];
        // `(makespan, steal_attempts, push_attempts, mailbox_takes)` per
        // preset and coin rule, from the engine before draws were made
        // ahead.
        let pinned = [
            [(135837, 38072, 0, 0); 3],
            [(135468, 42169, 0, 0); 3],
            [(136399, 38565, 4, 4), (136216, 38579, 8, 8), (187754, 54540, 3, 3)],
            [(136014, 42289, 3, 3), (135671, 42218, 4, 4), (135761, 42251, 3, 3)],
        ];
        let (mut own_mailbox, mut pushback, mut fast_forward) = (0, 0, 0);
        for ((_, preset), pinned) in SchedPolicy::ablation_grid().into_iter().zip(pinned) {
            for (coin_flip, pinned) in coins.into_iter().zip(pinned) {
                let cfg = SimConfig::with_policy(SchedPolicy { coin_flip, ..preset }, 32);
                let map = WorkerMap::new(&topo, 32, topo.packed_places(32)).unwrap();
                let mut e = Engine::new(&topo, &dag, &cfg, map);
                while e.done_at.is_none() {
                    let w = e.turns.next();
                    let (held, pushes) = (e.held[w].is_some(), e.counters.push_attempts);
                    if e.states[w] == WState::Steal && e.stealable == 0 {
                        fast_forward += u64::from(e.held.iter().any(Option::is_some));
                    } else if held {
                        own_mailbox += u64::from(!e.mailboxes[w].is_empty());
                    }
                    e.pass();
                    pushback += u64::from(held && e.counters.push_attempts > pushes);
                }
                let r = e.report();
                let c = &r.counters;
                assert_eq!(
                    (r.makespan, c.steal_attempts, c.push_attempts, c.mailbox_takes),
                    pinned,
                    "{preset} coin={coin_flip:?}"
                );
            }
        }
        assert!(own_mailbox > 0, "no held draw was discarded for the own mailbox");
        assert!(pushback > 0, "no consumed draw was followed by a PUSHBACK episode");
        assert!(fast_forward > 0, "no fast-forward started while a draw was held");
    }

    #[test]
    fn locality_hints_reduce_remote_lines() {
        // A wide tree per place, each leaf touching its place's chunk.
        fn subtree(
            b: &mut DagBuilder,
            place: usize,
            data: crate::memory::RegionId,
            first: u64,
            pages: u64,
            leaves: u64,
        ) {
            b.open(Place(place));
            if leaves == 1 {
                let touch = Touch { region: data, start_page: first, pages, lines_per_page: 64 };
                b.strand(Strand { cycles: 500, touches: vec![touch] });
            } else {
                subtree(b, place, data, first, pages / 2, leaves / 2);
                subtree(b, place, data, first + pages / 2, pages - pages / 2, leaves - leaves / 2);
                b.sync();
            }
            b.close();
        }
        let build = |hinted: bool| {
            let mut b = DagBuilder::new();
            let data = b.alloc("d", 1024, PagePolicy::Chunked { chunks: 4 });
            b.frame(if hinted { Place(0) } else { Place::ANY }, |b| {
                for q in 0..4usize {
                    let place = if hinted { q } else { 0 };
                    // Touch each quarter (256 pages) via 32 leaves.
                    subtree(b, place, data, q as u64 * 256, 256, 32);
                }
                b.sync();
            });
            b.build()
        };
        let topo = presets::paper_machine();
        let hinted = build(true);
        let r_numa = Simulation::new(&topo, SimConfig::numa_ws(32), &hinted).unwrap().run();
        let r_classic = Simulation::new(&topo, SimConfig::vanilla(32), &hinted).unwrap().run();
        assert!(
            r_numa.remote_fraction() < r_classic.remote_fraction(),
            "NUMA-WS remote fraction {:.3} should beat classic {:.3}",
            r_numa.remote_fraction(),
            r_classic.remote_fraction()
        );
        assert!(
            r_numa.total_work() < r_classic.total_work(),
            "NUMA-WS work {} should be deflated vs classic {}",
            r_numa.total_work(),
            r_classic.total_work()
        );
    }

    #[test]
    fn steal_bound_scales_with_span() {
        // O(P * T∞) steal attempts: check the ratio stays modest across
        // sizes for a fixed P.
        let topo = presets::paper_machine();
        for leaves in [64usize, 256] {
            let dag = tree(leaves, 1_000);
            let r = Simulation::new(&topo, SimConfig::vanilla(16), &dag).unwrap().run();
            let bound = 16.0 * dag.span() as f64;
            let ratio = r.counters.steal_attempts as f64 / bound;
            assert!(
                ratio < 60.0,
                "steal attempts {} vastly exceed P*span {} (ratio {ratio:.1})",
                r.counters.steal_attempts,
                bound
            );
        }
    }

    #[test]
    fn makespan_bounded_by_greedy_bound_with_overheads() {
        let dag = tree(512, 1_000);
        let topo = presets::paper_machine();
        for p in [2usize, 8, 32] {
            let r = Simulation::new(&topo, SimConfig::numa_ws(p), &dag).unwrap().run();
            // T_P <= c1*T1/P + c2*T∞ with engine constants; use generous
            // constants to keep the test robust while still meaningful.
            let t1 = dag.work() as f64 + dag.num_spawns() as f64 * 11.0;
            let bound = 2.0 * t1 / p as f64 + 2000.0 * dag.span() as f64;
            assert!((r.makespan as f64) < bound, "P={p}: makespan {} exceeds {bound}", r.makespan);
        }
    }

    #[test]
    fn mailbox_capacity_zero_disables_pushing() {
        let mut cfg = SimConfig::numa_ws(8);
        cfg.policy.mailbox_capacity = 0;
        let dag = tree(64, 500);
        let topo = presets::paper_machine();
        let r = Simulation::new(&topo, cfg, &dag).unwrap().run();
        assert_eq!(r.counters.push_deliveries, 0);
    }

    #[test]
    fn idle_plus_busy_equals_makespan() {
        let dag = tree(128, 1_000);
        let topo = presets::paper_machine();
        let r = Simulation::new(&topo, SimConfig::numa_ws(8), &dag).unwrap().run();
        for w in &r.workers {
            assert!(
                w.work + w.sched + w.idle >= r.makespan,
                "per-worker times must cover the makespan"
            );
        }
    }

    #[test]
    fn foreign_frames_push_back_only_with_mailboxes() {
        // 32 packed workers use all four sockets, so a Place(3) hint really
        // is foreign to worker 0 (8 packed workers would share one place).
        let topo = presets::paper_machine();
        let dag = {
            let mut b = DagBuilder::new();
            b.frame(Place::ANY, |b| {
                b.frame(Place(3), |b| _ = b.compute(1));
                b.sync();
            });
            b.build()
        };
        let (foreign, local) = (0, 1);
        let ready = |policy: SchedPolicy, frame: usize| {
            let cfg = SimConfig::with_policy(policy, 32);
            let map = WorkerMap::new(&topo, cfg.workers, 4).unwrap();
            let mut engine = Engine::new(&topo, &dag, &cfg, map);
            engine.resume_full(0, (frame, 0));
            (engine.states[0], engine.counters.push_deliveries)
        };
        let run_here = |frame| WState::Exec { frame, step: 0 };
        assert_eq!(ready(SchedPolicy::numa_ws(), foreign), (WState::Steal, 1));
        assert_eq!(
            ready(SchedPolicy::numa_ws(), local),
            (run_here(local), 0),
            "ANY is never foreign"
        );
        assert_eq!(
            ready(SchedPolicy::vanilla(), foreign),
            (run_here(foreign), 0),
            "no mailboxes, no pushback"
        );
    }

    #[test]
    fn schedule_log_records_steals_and_executors() {
        let dag = tree(64, 500);
        let topo = presets::paper_machine();
        let cfg = SimConfig::numa_ws(8).with_log_schedule(true);
        let r = Simulation::new(&topo, cfg.clone(), &dag).unwrap().run();
        let log = r.schedule.as_ref().expect("logging was enabled");
        assert_eq!(log.steals.len() as u64, r.counters.steals);
        assert_eq!(log.executors.len(), dag.num_frames());
        assert!(log.executors.iter().all(|e| e.is_some()), "every frame finished somewhere");
        // Same seed, same schedule — the property the golden trace tests
        // build on.
        let r2 = Simulation::new(&topo, cfg, &dag).unwrap().run();
        assert_eq!(r.schedule, r2.schedule);
        // Off by default.
        let quiet = Simulation::new(&topo, SimConfig::numa_ws(8), &dag).unwrap().run();
        assert!(quiet.schedule.is_none());
    }
}
