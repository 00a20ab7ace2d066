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
//! A recorded interval is *inclusive*: a parent's bracket covers the
//! children it ran inline (same worker, nested interval). The lowering
//! subtracts those nested same-worker child durations so replayed work is
//! counted once; children that ran elsewhere overlap the parent's blocked
//! sync wait and are not subtracted. Every started task keeps a 1-cycle
//! floor so the DAG stays well-formed under coarse clocks.

use crate::dag::{Dag, DagBuilder, FrameId, Strand};
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
    let n = trace.tasks.len();
    let mut b = DagBuilder::new();

    // Children of each task, in ascending id order (tasks are id-sorted).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let idx_of = |id: u64| -> usize {
        trace.tasks.binary_search_by_key(&id, |t| t.id).expect("validated trace: parent exists")
    };
    for (i, t) in trace.tasks.iter().enumerate() {
        if let Some(p) = t.parent {
            children[idx_of(p)].push(i);
        }
    }

    // Exclusive nanoseconds: inclusive duration minus nested same-worker
    // child intervals (those ran inline inside the parent's bracket).
    let exclusive_ns: Vec<u64> = trace
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let nested: u64 = children[i]
                .iter()
                .map(|&c| &trace.tasks[c])
                .filter(|c| {
                    c.worker.is_some()
                        && c.worker == t.worker
                        && c.start_ns >= t.start_ns
                        && c.end_ns <= t.end_ns
                })
                .map(|c| c.duration_ns())
                .sum();
            t.duration_ns().saturating_sub(nested)
        })
        .collect();

    // Build frames bottom-up: children carry larger ids than their parents
    // (validated invariant), so walking ids in descending order guarantees
    // every child's frame exists before its parent's.
    let mut frames: Vec<Option<FrameId>> = vec![None; n];
    for i in (0..n).rev() {
        let t = &trace.tasks[i];
        let place = t.place.map_or(Place::ANY, Place);
        let cycles = (exclusive_ns[i] / scale).max(1);
        let mut fb = b.frame(place);
        for &c in &children[i] {
            fb = fb.spawn(frames[c].expect("descending id order builds children first"));
        }
        fb = fb.strand(Strand::compute(cycles));
        if !children[i].is_empty() {
            fb = fb.sync();
        }
        frames[i] = Some(fb.finish());
    }

    let roots: Vec<FrameId> = trace
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.parent.is_none())
        .map(|(i, _)| frames[i].unwrap())
        .collect();
    match roots.as_slice() {
        [] => {
            // Empty trace: a trivial 1-cycle computation.
            let root = b.frame(Place::ANY).compute(1).finish();
            b.build(root)
        }
        [only] => b.build(*only),
        many => {
            let mut fb = b.frame(Place::ANY);
            for r in many {
                fb = fb.spawn(*r);
            }
            let root = fb.compute(1).sync().finish();
            b.build(root)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
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
