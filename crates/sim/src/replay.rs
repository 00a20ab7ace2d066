//! Trace replay: lowering a recorded [`Trace`] onto the simulator's
//! series-parallel DAG model.
//!
//! A trace recorded on the real pool (`PoolBuilder::record_trace`) is an
//! id-ordered task table: spawn edges, place hints, and per-task execution
//! intervals. [`trace_to_dag`] rebuilds a [`Dag`] from it — each task
//! becomes a frame that spawns its recorded children, executes its
//! **exclusive** time as one strand, and syncs — which the simulator can
//! then re-execute under simulated costs and any `SchedPolicy`. Record
//! once on the real machine, replay under every policy cell: `reproduce`
//! replays the committed golden trace this way under the four
//! ablation-grid presets.
//!
//! ## Exclusive time
//!
//! A recorded interval is *inclusive*: a worker waiting in a join runs
//! other tasks inside the waiting task's bracket — its own children, or
//! any task it steals, such as a grandchild spawned elsewhere. Brackets on
//! one worker nest like a stack, so the lowering subtracts from each
//! bracket the brackets nested directly inside it on the same worker,
//! whoever's task they are, and replayed work is counted once. Children
//! that ran on another worker overlap the parent's blocked sync wait and
//! are not subtracted. Every task keeps a 1-cycle floor so the DAG stays
//! well-formed under coarse clocks.

use crate::dag::{Dag, DagBuilder};
use nws_topology::Place;
use nws_trace::Trace;

/// Default nanoseconds-per-cycle for [`trace_to_dag`]: treats the recording
/// machine as ~1 GHz, which keeps replayed strand weights in the same range
/// as the synthetic workloads' hand-written cycle counts.
pub const DEFAULT_NS_PER_CYCLE: u64 = 1;

/// Lowers a recorded trace onto the series-parallel DAG model; `ns_per_cycle`
/// scales recorded wall-clock nanoseconds into simulated cycles (clamped to
/// >= 1).
///
/// Tasks with multiple recorded roots (external spawns) are gathered under
/// a synthesized zero-work super-root so the engine's single-root protocol
/// applies. A task with no recorded execution (one still in flight when
/// the trace was drained) replays as a minimal 1-cycle frame.
pub fn trace_to_dag(trace: &Trace, ns_per_cycle: u64) -> Dag {
    let scale = ns_per_cycle.max(1);
    let tasks = &trace.tasks;

    // Children of each task, in ascending id order (tasks are id-sorted).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    let mut roots = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        match t.parent {
            Some(p) => {
                let p = tasks.binary_search_by_key(&p, |t| t.id);
                children[p.expect("validated trace: parent exists")].push(i);
            }
            None => roots.push(i),
        }
    }

    // Exclusive nanoseconds: one sweep over each worker's brackets, outer
    // before inner (a tie goes to the smaller id, since a parent's id is
    // smaller), with the brackets enclosing the current one on a stack.
    let mut exclusive_ns: Vec<u64> = tasks.iter().map(|t| t.duration_ns()).collect();
    let mut order: Vec<usize> = (0..tasks.len()).filter(|&i| tasks[i].worker.is_some()).collect();
    order.sort_unstable_by_key(|&i| {
        let t = &tasks[i];
        (t.worker, t.start_ns, std::cmp::Reverse(t.end_ns), t.id)
    });
    let mut enclosing: Vec<usize> = Vec::new();
    for &i in &order {
        let t = &tasks[i];
        while let Some(&o) = enclosing.last() {
            if tasks[o].worker == t.worker && t.end_ns <= tasks[o].end_ns {
                exclusive_ns[o] = exclusive_ns[o].saturating_sub(t.duration_ns());
                break;
            }
            enclosing.pop();
        }
        enclosing.push(i);
    }

    // Walk the spawn tree with an explicit stack, so a deep trace lowers
    // too: each task spawns its children, then runs its exclusive time as
    // one strand, then syncs.
    let place = |i: usize| tasks[i].place.map_or(Place::ANY, Place);
    let mut b = DagBuilder::new();
    let super_root = roots.len() != 1;
    if super_root {
        b.open(Place::ANY);
    }
    // Each open task with the position of the next child to walk.
    let mut walk: Vec<(usize, usize)> = Vec::new();
    for &root in &roots {
        b.open(place(root));
        walk.push((root, 0));
        while let Some(&mut (t, ref mut next)) = walk.last_mut() {
            if let Some(&c) = children[t].get(*next) {
                *next += 1;
                b.open(place(c));
                walk.push((c, 0));
            } else {
                b.compute((exclusive_ns[t] / scale).max(1));
                if !children[t].is_empty() {
                    b.sync();
                }
                b.close();
                walk.pop();
            }
        }
    }
    if super_root {
        b.compute(1);
        if !roots.is_empty() {
            b.sync();
        }
        b.close();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::dag::FrameId;
    use crate::engine::Simulation;
    use nws_topology::{presets, SchedPolicy};
    use nws_trace::{TraceMeta, TraceTask};

    fn meta() -> TraceMeta {
        TraceMeta { workers: 4, places: 2, seed: 7, label: "replay-unit".into() }
    }

    fn task(
        id: u64,
        parent: Option<u64>,
        place: Option<usize>,
        worker: Option<usize>,
        start: u64,
        end: u64,
    ) -> TraceTask {
        TraceTask { id, parent, place, worker, start_ns: start, end_ns: end }
    }

    #[test]
    fn inline_children_are_subtracted_from_parent_work() {
        // Parent [0, 1000] on worker 0; child A [100, 300] inline on
        // worker 0; child B [100, 900] stolen by worker 1.
        let trace = Trace {
            meta: meta(),
            tasks: vec![
                task(1, None, None, Some(0), 0, 1000),
                task(2, Some(1), None, Some(0), 100, 300),
                task(3, Some(1), None, Some(1), 100, 900),
            ],
        };
        trace.validate().unwrap();
        let dag = trace_to_dag(&trace, 1);
        assert_eq!(dag.num_frames(), 3);
        // Parent strand = 1000 - 200 (inline child) = 800; stolen child's
        // 800 not subtracted; inline child 200. Total work 1800.
        assert_eq!(dag.work(), 800 + 200 + 800);
        dag.validate().unwrap();
    }

    #[test]
    fn a_stolen_grandchild_nested_on_the_same_worker_is_subtracted() {
        // Task 1 [0, 1000] on worker 0; its child 2 [100, 900] stolen by
        // worker 1; 2's child 3 [200, 400] stolen back by worker 0 while
        // task 1 waits in its join. Task 1 ran 800 ns of its own, not 1000.
        let trace = Trace {
            meta: meta(),
            tasks: vec![
                task(1, None, None, Some(0), 0, 1000),
                task(2, Some(1), None, Some(1), 100, 900),
                task(3, Some(2), None, Some(0), 200, 400),
            ],
        };
        trace.validate().unwrap();
        let dag = trace_to_dag(&trace, 1);
        assert_eq!(dag.work(), 800 + 800 + 200);
    }

    #[test]
    fn a_deep_chain_lowers_without_recursion() {
        // Task k (1..=N) spawns task k + 1 and runs on worker 0 over
        // [k, 2N + 1 - k], so each task runs 2 ns of its own and the
        // innermost 1 ns. Each strand runs after its spawn, beside the
        // child, so the span is one strand.
        const N: u64 = 100_000;
        let tasks = (1..=N)
            .map(|k| task(k, (k > 1).then(|| k - 1), None, Some(0), k, 2 * N + 1 - k))
            .collect();
        let trace = Trace { meta: meta(), tasks };
        trace.validate().unwrap();
        let dag = trace_to_dag(&trace, 1);
        assert_eq!(dag.num_frames(), N as usize);
        assert_eq!(dag.work(), 2 * (N - 1) + 1);
        assert_eq!(dag.span(), 2);
        dag.validate().unwrap();
    }

    #[test]
    fn place_hints_survive_the_lowering() {
        let trace = Trace {
            meta: meta(),
            tasks: vec![
                task(1, None, Some(0), Some(0), 0, 100),
                task(2, Some(1), Some(1), Some(2), 10, 60),
            ],
        };
        let dag = trace_to_dag(&trace, 1);
        let places: Vec<Place> =
            (0..dag.num_frames()).map(|f| dag.frame(FrameId(f)).place).collect();
        assert!(places.contains(&Place(1)), "child's hint preserved: {places:?}");
    }

    #[test]
    fn multiple_roots_get_a_super_root() {
        let trace = Trace {
            meta: meta(),
            tasks: vec![
                task(1, None, None, Some(0), 0, 50),
                task(2, None, None, Some(1), 0, 70),
                task(3, None, None, None, 0, 0), // spawned, never executed
            ],
        };
        let dag = trace_to_dag(&trace, 1);
        assert_eq!(dag.num_frames(), 4, "three tasks + synthesized super-root");
        dag.validate().unwrap();
        // And it actually runs.
        let topo = presets::paper_machine();
        let r = Simulation::new(&topo, SimConfig::numa_ws(4), &dag).unwrap().run();
        assert!(r.makespan >= 70);
    }

    #[test]
    fn empty_trace_yields_a_trivial_dag() {
        let trace = Trace { meta: meta(), tasks: vec![] };
        let dag = trace_to_dag(&trace, 1);
        assert_eq!(dag.num_frames(), 1);
        assert_eq!(dag.work(), 1);
    }

    #[test]
    fn ns_per_cycle_scales_strand_weights() {
        let trace = Trace { meta: meta(), tasks: vec![task(1, None, None, Some(0), 0, 10_000)] };
        let fine = trace_to_dag(&trace, 1);
        let coarse = trace_to_dag(&trace, 100);
        assert_eq!(fine.work(), 10_000);
        assert_eq!(coarse.work(), 100);
    }

    #[test]
    fn replay_is_deterministic_across_schedulers() {
        // A fork-join-ish trace; replaying twice under each scheduler with
        // schedule logging must produce identical schedules.
        let mut tasks = vec![task(1, None, Some(0), Some(0), 0, 4000)];
        for i in 0..12u64 {
            let s = 100 + i * 300;
            tasks.push(task(
                2 + i,
                Some(1),
                Some((i % 2) as usize),
                Some((i % 4) as usize),
                s,
                s + 250,
            ));
        }
        let trace = Trace { meta: meta(), tasks };
        trace.validate().unwrap();
        let dag = trace_to_dag(&trace, 1);
        let topo = presets::paper_machine();
        for (_, policy) in SchedPolicy::ablation_grid() {
            let cfg = SimConfig::with_policy(policy, 8).with_log_schedule(true);
            let a = Simulation::new(&topo, cfg.clone(), &dag).unwrap().run();
            let b = Simulation::new(&topo, cfg, &dag).unwrap().run();
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.schedule, b.schedule);
            assert!(a.schedule.is_some());
        }
    }
}
