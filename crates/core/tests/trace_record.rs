//! Integration tests for DAG trace recording on the real pool: a pool built
//! with `record_trace(true)` logs every spawn edge and execution interval,
//! and `take_trace` folds the per-worker lanes into a validated `Trace`
//! (exactly-once per task, parent ids precede child ids).

use numa_ws::{join, Place, Pool};
use nws_trace::Trace;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

fn recording_pool(workers: usize, places: usize) -> Pool {
    Pool::builder().workers(workers).places(places).record_trace(true).build().expect("pool")
}

#[test]
fn untraced_pool_returns_no_trace() {
    let pool = Pool::new(2).expect("pool");
    assert_eq!(pool.install(|| fib(8)), 21);
    assert!(pool.take_trace("none").is_none());
}

#[test]
fn fib_trace_has_exact_task_count() {
    let pool = recording_pool(4, 2);
    assert_eq!(pool.install(|| fib(10)), 55);
    let trace = pool.take_trace("fib10").expect("recording was on");
    trace.validate().expect("well-formed trace");
    assert_eq!(trace.meta.workers, 4);
    assert_eq!(trace.meta.places, 2);
    assert_eq!(trace.meta.label, "fib10");
    // One task per join spawn (the stealable half of every two-way fork,
    // i.e. one per internal call: fib(n) for n >= 2 spawns fib(n-2))
    // plus the injected root. calls(10) counts internal nodes of the
    // fib call tree: calls(n) = calls(n-1) + calls(n-2) + 1.
    fn calls(n: u64) -> u64 {
        if n < 2 {
            0
        } else {
            calls(n - 1) + calls(n - 2) + 1
        }
    }
    assert_eq!(trace.tasks.len() as u64, calls(10) + 1);
    // Quiescent drain: every spawned task actually ran (no overflow at
    // this depth), and the id space is dense from 1.
    assert_eq!(trace.num_started(), trace.tasks.len());
    assert_eq!(trace.tasks.first().map(|t| t.id), Some(1));
    assert_eq!(trace.tasks.last().map(|t| t.id), Some(trace.tasks.len() as u64));
}

#[test]
fn trace_parents_form_a_tree_rooted_at_the_install() {
    let pool = recording_pool(2, 1);
    pool.install(|| fib(9));
    let trace = pool.take_trace("fib9").expect("trace");
    trace.validate().expect("well-formed");
    let roots: Vec<_> = trace.tasks.iter().filter(|t| t.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one rootless task: the injected install root");
    assert_eq!(roots[0].id, 1);
    for t in &trace.tasks {
        if let Some(p) = t.parent {
            assert!(p < t.id, "spawn edges point backwards in id order");
        }
        assert!(t.worker.is_some(), "task {} never ran despite quiescent drain", t.id);
        assert!(t.end_ns >= t.start_ns);
        if let Some(w) = t.worker {
            assert!(w < trace.meta.workers);
        }
    }
}

#[test]
fn place_hints_are_recorded() {
    let pool = recording_pool(4, 2);
    pool.install(|| {
        numa_ws::join_at(|| fib(5), || fib(5), Place(1));
    });
    let trace = pool.take_trace("hinted").expect("trace");
    assert!(
        trace.tasks.iter().any(|t| t.place == Some(1)),
        "the join_at spawn carries its place hint into the trace"
    );
}

#[test]
fn scope_spawns_are_recorded_as_children() {
    let pool = recording_pool(3, 1);
    pool.scope(|s| {
        for _ in 0..16 {
            s.spawn(|_| {
                std::hint::black_box(fib(3));
            });
        }
    });
    let trace = pool.take_trace("scope").expect("trace");
    trace.validate().expect("well-formed");
    // Root (the install wrapper) + 16 scope tasks, each spawning fib(3)'s
    // single fork; all scope tasks are children of the root.
    let root = trace.tasks.iter().find(|t| t.parent.is_none()).expect("root").id;
    let children = trace.tasks.iter().filter(|t| t.parent == Some(root)).count();
    assert_eq!(children, 16);
    assert_eq!(trace.num_started(), trace.tasks.len());
}

#[test]
fn consecutive_drains_capture_disjoint_episodes() {
    let pool = recording_pool(2, 1);
    pool.install(|| fib(6));
    let first = pool.take_trace("first").expect("trace");
    pool.install(|| fib(6));
    let second = pool.take_trace("second").expect("trace");
    assert_eq!(first.tasks.len(), second.tasks.len());
    // Ids keep ascending across drains (the counter is not reset, so the
    // two episodes never collide), and each drain only holds its own.
    let first_max = first.tasks.last().map(|t| t.id).unwrap();
    assert!(second.tasks.first().map(|t| t.id).unwrap() > first_max);
}

#[test]
fn trace_text_round_trips() {
    let pool = recording_pool(4, 2);
    pool.install(|| fib(9));
    let trace = pool.take_trace("round trip label").expect("trace");
    let text = trace.to_text();
    let back: Trace = text.parse().expect("parses");
    assert_eq!(back, trace);
}

#[test]
fn external_spawns_are_rootless() {
    let (tx, rx) = std::sync::mpsc::channel();
    let pool = recording_pool(2, 1);
    for i in 0..4u64 {
        let tx = tx.clone();
        pool.spawn(move || {
            tx.send(fib(4) + i).unwrap();
        });
    }
    for _ in 0..4 {
        rx.recv().unwrap();
    }
    // spawn() publishes through the channel before the End event lands
    // (no latch for fire-and-forget jobs), so quiesce the pool itself
    // with a cheap barrier install before draining.
    pool.install(|| ());
    let trace = pool.take_trace("spawns").expect("trace");
    trace.validate().expect("well-formed");
    let rootless = trace.tasks.iter().filter(|t| t.parent.is_none()).count();
    assert_eq!(rootless, 5, "4 external spawns + 1 barrier install, all rootless");
}

/// Recording pools fork lazily, so a join's task id has to survive its
/// frame's promotion: the id lives beside the frame's two words and goes
/// back into the `JobRef` promotion rebuilds. A frame that lost it would
/// run its task with no Start/End bracket (or under another task's id).
#[test]
fn promoted_frames_keep_their_trace_ids() {
    let pool = recording_pool(2, 1);
    let (n, fib_n) = if cfg!(debug_assertions) { (16, 987) } else { (20, 6765) };
    for round in 0.. {
        pool.reset_stats();
        assert_eq!(pool.install(|| fib(n)), fib_n);
        let stats = pool.stats();
        // The fold refuses a Start or End whose task has no Spawn.
        let trace = pool.take_trace("promoted").expect("recording was on");
        if stats.total_join_promotions() == 0 || stats.total_steals() == 0 {
            assert!(round < 100, "no steal of a promoted frame in 100 rounds: {stats:?}");
            continue;
        }
        trace.validate().expect("well-formed");
        assert_eq!(trace.num_started(), trace.tasks.len(), "every task ran inside its bracket");
        // Every Spawn but the injected root's is a fork `spawns` counted.
        assert_eq!(trace.tasks.len() as u64, stats.total_spawns() + 1, "{stats:?}");
        break;
    }
}

/// A submission a bounded ingress queue refuses never becomes a task: the
/// trace holds only what was queued, and every queued task ran.
#[test]
fn refused_ingress_leaves_no_task() {
    let pool =
        Pool::builder().workers(1).ingress_capacity(1).record_trace(true).build().expect("pool");
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    // Occupy the lone worker, then fill the one ingress slot.
    pool.spawn(move || {
        started_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    });
    started_rx.recv().unwrap();
    assert!(pool.try_spawn_at(Place(0), || ()).is_ok(), "the empty queue takes one job");
    for _ in 0..3 {
        assert!(pool.try_spawn_at(Place(0), || ()).is_err(), "the full queue refuses");
    }
    release_tx.send(()).unwrap();
    // A barrier install quiesces the pool before draining.
    pool.install(|| ());
    let trace = pool.take_trace("refused").expect("recording was on");
    trace.validate().expect("well-formed");
    assert_eq!(trace.tasks.len(), 3, "occupier, queued job and barrier: {:?}", trace.tasks);
    assert_eq!(trace.num_started(), trace.tasks.len(), "no never-started task");
}
