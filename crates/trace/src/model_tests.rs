//! Checked-interleaving tests for the trace recorder, compiled only under
//! `--cfg nws_model` (the `nws_sync` model-checking backend). The sink's
//! whole concurrency surface is the id counter (one atomic) and the
//! per-lane append mutexes; these tests explore every schedule of
//! concurrent emitters and prove the exactly-once contract of
//! [`Trace::from_events`] holds on all of them — trace recording never
//! loses or duplicates a task event.

use super::*;
use nws_sync::model::Builder;
use nws_sync::thread;
use std::sync::Arc;

fn meta() -> TraceMeta {
    TraceMeta { workers: 2, places: 1, seed: 0, label: "model".into() }
}

/// Two workers concurrently spawn-and-execute one task each through their
/// own lanes while racing on the shared id counter: on every explored
/// schedule the drained soup folds into exactly two complete tasks with
/// distinct ids.
#[test]
fn concurrent_emitters_never_lose_or_duplicate_events() {
    Builder::exhaustive(2, 200_000).run(|| {
        let sink = Arc::new(TraceSink::new(2));
        let emit = |sink: &TraceSink, lane: usize| {
            let id = sink.next_id();
            sink.record(lane, TraceEvent::Spawn { task: id, parent: None, place: Some(lane) });
            sink.record(lane, TraceEvent::Start { task: id, worker: lane, at_ns: 1 });
            sink.record(lane, TraceEvent::End { task: id, at_ns: 2 });
            id
        };
        let s2 = Arc::clone(&sink);
        let t = thread::spawn(move || emit(&s2, 1));
        let a = emit(&sink, 0);
        let b = t.join().unwrap();
        assert_ne!(a, b, "racing id allocations must stay distinct");

        let events = sink.drain();
        assert_eq!(events.len(), 6, "no event may be lost");
        let trace = Trace::from_events(meta(), &events).expect("exactly-once holds");
        assert_eq!(trace.tasks.len(), 2);
        assert_eq!(trace.num_started(), 2);
        assert_eq!(trace.tasks[0].place, trace.tasks[0].worker);
    });
}

/// A worker spawning a child into its lane races another worker recording
/// the child's execution (the steal shape: spawner and executor differ).
/// Folding must produce one complete child on every schedule, regardless
/// of which lane drains first.
#[test]
fn spawner_and_executor_lanes_interleave_exactly_once() {
    Builder::exhaustive(2, 200_000).run(|| {
        let sink = Arc::new(TraceSink::new(2));
        let root = sink.next_id();
        sink.record(0, TraceEvent::Spawn { task: root, parent: None, place: None });
        let child = sink.next_id();
        let s2 = Arc::clone(&sink);
        let t = thread::spawn(move || {
            // The thief executes the child through its own lane.
            s2.record(1, TraceEvent::Start { task: child, worker: 1, at_ns: 3 });
            s2.record(1, TraceEvent::End { task: child, at_ns: 7 });
        });
        // The owner records the spawn edge concurrently with the thief's
        // execution bracket.
        sink.record(0, TraceEvent::Spawn { task: child, parent: Some(root), place: Some(0) });
        t.join().unwrap();

        let trace = Trace::from_events(meta(), &sink.drain()).expect("fold succeeds");
        assert_eq!(trace.tasks.len(), 2);
        let c = &trace.tasks[1];
        assert_eq!((c.parent, c.worker, c.duration_ns()), (Some(root), Some(1), 4));
    });
}
