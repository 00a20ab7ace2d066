//! `nws_trace` — the compact DAG execution-trace format shared by the two
//! substrates.
//!
//! The real pool records one [`TraceEvent`] per task transition through a
//! [`TraceSink`] (spawn edges with place hints, start/end timestamps per
//! execution); [`Trace::from_events`] folds the event soup into a
//! validated task table; and the text codec ([`Trace::to_text`] /
//! [`Trace::parse`]) is what the committed golden trace persists and
//! `reproduce` reads back: the hand-rolled line format *is* the on-disk
//! format, exactly as the policy layer's `Display` encoding is for
//! `SchedPolicy`.
//!
//! The simulator side lives in `nws_sim::replay`, which lowers a [`Trace`]
//! onto the series-parallel DAG model and replays it under any
//! `SchedPolicy`. This crate deliberately depends only on `nws_sync` (the
//! recorder must obey the PR 6 facade rule so the checked-interleaving
//! tier can explore it — see the `model_tests` module).
//!
//! # Recording semantics
//!
//! - A **Spawn** is recorded when a task is created (a fork, or an external
//!   submission once its ingress queue accepted it; a refused submission
//!   is no task), carrying its parent (the task the spawning worker was
//!   executing, if any) and its place hint. Task ids are allocated by the
//!   sink, monotonically, so a child's id is always greater than its
//!   parent's — the replay loader leans on that order. A refused
//!   submission's id stays unused, so ids can have gaps.
//! - **Start**/**End** bracket an execution. Every path that runs a
//!   recorded task brackets it: a worker executing a claimed job, a `join`
//!   branch run in place, a deque-overflow spawn run inline. A drain of a
//!   quiescent pool therefore shows every task started; only a drain taken
//!   while work is in flight holds tasks with no worker and zero duration,
//!   and loaders must tolerate them.
//! - Exactly-once: a task is spawned once and started/ended at most once.
//!   [`Trace::from_events`] rejects violations, and the model test proves
//!   the sink never loses or duplicates an event under explored schedules.

use nws_sync::atomic::{AtomicU64, Ordering};
use nws_sync::Mutex;
use std::fmt;
use std::time::Instant;

/// One recorded task transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task came into existence (a fork or an accepted external
    /// submission).
    Spawn {
        /// Sink-allocated task id (monotone; always greater than `parent`).
        task: u64,
        /// The task the spawning worker was executing, if any.
        parent: Option<u64>,
        /// The place hint attached at spawn time.
        place: Option<usize>,
    },
    /// A worker began executing the task.
    Start {
        /// The task.
        task: u64,
        /// The executing worker's index.
        worker: usize,
        /// Nanoseconds since the sink was created.
        at_ns: u64,
    },
    /// The executing worker finished the task.
    End {
        /// The task.
        task: u64,
        /// Nanoseconds since the sink was created.
        at_ns: u64,
    },
}

/// A concurrent event recorder: one lane (shard) per worker plus one for
/// external submitters, so recording on the work path never contends with
/// another worker — each lane's mutex is effectively thread-private and
/// uncontended (taken cross-lane only by [`drain`](TraceSink::drain)).
///
/// All synchronization goes through the `nws_sync` facade (PR 6 standing
/// rule), so the `--cfg nws_model` tier explores every interleaving of id
/// allocation and lane appends.
#[derive(Debug)]
pub struct TraceSink {
    /// Next task id; ids start at 1 so 0 can serve as the runtime's
    /// "untraced" sentinel in copied job handles.
    next_id: AtomicU64,
    /// Execution brackets opened (Start recorded) but not yet closed.
    /// Incremented *before* a Start lands in its lane and decremented
    /// *after* the matching End does, so `open_brackets() == 0` implies
    /// every started task's End event is already drainable — the
    /// quiescence probe a drain needs, since a worker records a task's End
    /// only after the task's completion is observable.
    open: AtomicU64,
    lanes: Vec<Mutex<Vec<TraceEvent>>>,
    t0: Instant,
}

impl TraceSink {
    /// A sink with `workers` worker lanes plus one external lane.
    pub fn new(workers: usize) -> Self {
        TraceSink {
            next_id: AtomicU64::new(1),
            open: AtomicU64::new(0),
            lanes: (0..workers + 1).map(|_| Mutex::new(Vec::new())).collect(),
            t0: Instant::now(),
        }
    }

    /// Allocates a fresh task id (monotone, never 0).
    #[inline]
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The lane index for events recorded off any worker thread.
    #[inline]
    pub fn external_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Nanoseconds since the sink was created (the trace's time base).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Appends `ev` to `lane` (a worker's own index, or
    /// [`external_lane`](TraceSink::external_lane)). Start/End events
    /// additionally maintain the open-bracket count (see
    /// [`open_brackets`](TraceSink::open_brackets)).
    #[inline]
    pub fn record(&self, lane: usize, ev: TraceEvent) {
        if matches!(ev, TraceEvent::Start { .. }) {
            self.open.fetch_add(1, Ordering::Release);
        }
        self.lanes[lane].lock().push(ev);
        if matches!(ev, TraceEvent::End { .. }) {
            self.open.fetch_sub(1, Ordering::Release);
        }
    }

    /// Number of execution brackets currently open (Start recorded, End
    /// not yet). Once the recorded workload is quiescent, spinning this to
    /// zero guarantees every End event has landed in its lane.
    #[inline]
    pub fn open_brackets(&self) -> u64 {
        self.open.load(Ordering::Acquire)
    }

    /// Takes every recorded event, emptying the sink. Per-lane order is
    /// preserved; cross-lane order is unspecified (and
    /// [`Trace::from_events`] does not depend on it).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            all.append(&mut lane.lock());
        }
        all
    }
}

/// Run-level metadata carried by a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Worker count of the recorded run.
    pub workers: usize,
    /// Place count of the recorded run.
    pub places: usize,
    /// The recorded pool's RNG seed.
    pub seed: u64,
    /// Free-form label on one line: [`Trace::validate`] refuses a `\n`
    /// or `\r` in it, which the text format could not read back.
    pub label: String,
}

/// One task of a folded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTask {
    /// Task id (unique, and greater than `parent`'s id).
    pub id: u64,
    /// Spawning task, or `None` for an external root.
    pub parent: Option<u64>,
    /// Place hint at spawn time.
    pub place: Option<usize>,
    /// Executing worker, or `None` if the task had not started when the
    /// trace was drained.
    pub worker: Option<usize>,
    /// Start timestamp (ns since trace start; 0 when `worker` is `None`).
    pub start_ns: u64,
    /// End timestamp (ns since trace start; 0 when `worker` is `None`).
    pub end_ns: u64,
}

impl TraceTask {
    /// Wall-clock nanoseconds of this task's execution (0 if unstarted).
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A validated, id-sorted task table plus run metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Run-level metadata.
    pub meta: TraceMeta,
    /// Tasks sorted by ascending id.
    pub tasks: Vec<TraceTask>,
}

/// Error from folding events or parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trace: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError(msg.into()))
}

impl Trace {
    /// Folds an event soup (any cross-lane order) into a task table,
    /// enforcing the exactly-once contract: one Spawn per task, at most
    /// one Start/End pair, every Start/End on a spawned task, `end >=
    /// start`, and every parent spawned with a smaller id.
    pub fn from_events(meta: TraceMeta, events: &[TraceEvent]) -> Result<Trace, TraceError> {
        let mut tasks: Vec<TraceTask> = Vec::new();
        for ev in events {
            if let TraceEvent::Spawn { task, parent, place } = *ev {
                if task == 0 {
                    return err("task id 0 is reserved");
                }
                tasks.push(TraceTask {
                    id: task,
                    parent,
                    place,
                    worker: None,
                    start_ns: 0,
                    end_ns: 0,
                });
            }
        }
        tasks.sort_by_key(|t| t.id);
        if tasks.windows(2).any(|w| w[0].id == w[1].id) {
            return err("duplicate Spawn");
        }
        let index_of = |id: u64, tasks: &[TraceTask]| -> Result<usize, TraceError> {
            tasks
                .binary_search_by_key(&id, |t| t.id)
                .map_err(|_| TraceError(format!("event for unspawned task {id}")))
        };
        let mut started = vec![false; tasks.len()];
        let mut ended = vec![false; tasks.len()];
        for ev in events {
            match *ev {
                TraceEvent::Spawn { .. } => {}
                TraceEvent::Start { task, worker, at_ns } => {
                    let i = index_of(task, &tasks)?;
                    if started[i] {
                        return err(format!("task {task} started twice"));
                    }
                    started[i] = true;
                    tasks[i].worker = Some(worker);
                    tasks[i].start_ns = at_ns;
                }
                TraceEvent::End { task, at_ns } => {
                    let i = index_of(task, &tasks)?;
                    if ended[i] {
                        return err(format!("task {task} ended twice"));
                    }
                    ended[i] = true;
                    tasks[i].end_ns = at_ns;
                }
            }
        }
        for (i, t) in tasks.iter().enumerate() {
            if started[i] != ended[i] {
                return err(format!("task {} has an unpaired start/end", t.id));
            }
        }
        let trace = Trace { meta, tasks };
        trace.validate()?;
        Ok(trace)
    }

    /// Validation shared by [`from_events`](Trace::from_events) and
    /// [`parse`](Trace::parse): ids unique and ascending, parents spawned
    /// earlier (smaller id) — the invariants the replay loader's parent
    /// lookup and spawn-tree walk lean on — and every bracket well formed:
    /// a started task ends no earlier than it starts, and an unstarted one
    /// has the empty bracket `0..0`. The label holds no line break, so
    /// [`to_text`](Trace::to_text) writes it on the meta line that
    /// [`parse`](Trace::parse) reads back.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.meta.label.contains(['\n', '\r']) {
            return err(format!("label {:?} holds a line break", self.meta.label));
        }
        for w in self.tasks.windows(2) {
            if w[0].id >= w[1].id {
                return err(format!("ids not strictly ascending at {}", w[1].id));
            }
        }
        for t in &self.tasks {
            if t.end_ns < t.start_ns {
                return err(format!("task {} ends before it starts", t.id));
            }
            if t.worker.is_none() && (t.start_ns, t.end_ns) != (0, 0) {
                return err(format!("unstarted task {} has a bracket", t.id));
            }
            if let Some(p) = t.parent {
                if p >= t.id {
                    return err(format!("task {} has parent {p} with a later id", t.id));
                }
                if self.tasks.binary_search_by_key(&p, |t| t.id).is_err() {
                    return err(format!("task {} has unknown parent {p}", t.id));
                }
            }
        }
        Ok(())
    }

    /// Tasks that were individually executed (have a worker and a
    /// start/end bracket).
    pub fn num_started(&self) -> usize {
        self.tasks.iter().filter(|t| t.worker.is_some()).count()
    }

    /// Total recorded execution nanoseconds (inclusive: a parent's bracket
    /// covers the children it ran inline).
    pub fn total_ns(&self) -> u64 {
        self.tasks.iter().map(|t| t.duration_ns()).sum()
    }

    /// Renders the trace in the versioned line format `parse` reads:
    ///
    /// ```text
    /// nws-trace v1
    /// meta workers=4 places=2 seed=24 tasks=3 label=fib-8
    /// task id=1 parent=- place=- worker=0 start=120 end=890
    /// ```
    pub fn to_text(&self) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "-".into(), |v| v.to_string())
        }
        let mut out = String::new();
        out.push_str("nws-trace v1\n");
        out.push_str(&format!(
            "meta workers={} places={} seed={} tasks={} label={}\n",
            self.meta.workers,
            self.meta.places,
            self.meta.seed,
            self.tasks.len(),
            self.meta.label
        ));
        for t in &self.tasks {
            out.push_str(&format!(
                "task id={} parent={} place={} worker={} start={} end={}\n",
                t.id,
                opt(t.parent),
                opt(t.place.map(|p| p as u64)),
                opt(t.worker.map(|w| w as u64)),
                t.start_ns,
                t.end_ns
            ));
        }
        out
    }

    /// Parses the [`to_text`](Trace::to_text) format and validates the
    /// result.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines();
        match lines.next() {
            Some("nws-trace v1") => {}
            Some(other) => return err(format!("bad header {other:?}")),
            None => return err("empty trace"),
        }
        let meta_line = match lines.next() {
            Some(l) if l.starts_with("meta ") => &l[5..],
            _ => return err("missing meta line"),
        };
        let mut workers = None;
        let mut places = None;
        let mut seed = None;
        let mut count = None;
        let mut label = String::new();
        let mut rest = meta_line;
        while let Some((key, after)) = rest.trim_start().split_once('=') {
            if key == "label" {
                label = after.to_string();
                break;
            }
            let (value, tail) = after.split_once(' ').unwrap_or((after, ""));
            let n: u64 =
                value.parse().map_err(|e| TraceError(format!("meta {key}={value:?}: {e}")))?;
            match key {
                "workers" => workers = Some(n as usize),
                "places" => places = Some(n as usize),
                "seed" => seed = Some(n),
                "tasks" => count = Some(n as usize),
                other => return err(format!("unknown meta key {other:?}")),
            }
            rest = tail;
        }
        let (Some(workers), Some(places), Some(seed), Some(count)) = (workers, places, seed, count)
        else {
            return err("meta line missing workers/places/seed/tasks");
        };
        // The declared count is checked, not trusted to size an allocation.
        let mut tasks = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some(body) = line.strip_prefix("task ") else {
                return err(format!("unexpected line {line:?}"));
            };
            let mut id = None;
            let mut parent = None;
            let mut place = None;
            let mut worker = None;
            let mut start = None;
            let mut end = None;
            for token in body.split_whitespace() {
                let (key, value) = token
                    .split_once('=')
                    .ok_or_else(|| TraceError(format!("token {token:?} is not key=value")))?;
                let opt: Option<u64> = if value == "-" {
                    None
                } else {
                    Some(value.parse().map_err(|e| TraceError(format!("{key}={value:?}: {e}")))?)
                };
                match key {
                    "id" => id = opt,
                    "parent" => parent = Some(opt),
                    "place" => place = Some(opt),
                    "worker" => worker = Some(opt),
                    "start" => start = opt,
                    "end" => end = opt,
                    other => return err(format!("unknown task key {other:?}")),
                }
            }
            let (Some(id), Some(parent), Some(place), Some(worker), Some(start), Some(end)) =
                (id, parent, place, worker, start, end)
            else {
                return err(format!("task line missing a field: {line:?}"));
            };
            tasks.push(TraceTask {
                id,
                parent,
                place: place.map(|p| p as usize),
                worker: worker.map(|w| w as usize),
                start_ns: start,
                end_ns: end,
            });
        }
        if tasks.len() != count {
            return err(format!("meta declares {count} tasks, found {}", tasks.len()));
        }
        let trace = Trace { meta: TraceMeta { workers, places, seed, label }, tasks };
        trace.validate()?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta { workers: 4, places: 2, seed: 24, label: "unit".into() }
    }

    fn spawn(task: u64, parent: Option<u64>, place: Option<usize>) -> TraceEvent {
        TraceEvent::Spawn { task, parent, place }
    }

    #[test]
    fn fold_and_roundtrip() {
        let events = [
            spawn(1, None, None),
            TraceEvent::Start { task: 1, worker: 0, at_ns: 10 },
            spawn(2, Some(1), Some(1)),
            spawn(3, Some(1), None),
            TraceEvent::Start { task: 2, worker: 1, at_ns: 40 },
            TraceEvent::End { task: 2, at_ns: 90 },
            TraceEvent::End { task: 1, at_ns: 120 },
        ];
        let trace = Trace::from_events(meta(), &events).unwrap();
        assert_eq!(trace.tasks.len(), 3);
        assert_eq!(trace.num_started(), 2, "task 3 was spawned but never executed");
        assert_eq!(trace.tasks[0].duration_ns(), 110);
        assert_eq!(trace.tasks[1].place, Some(1));
        assert_eq!(trace.tasks[2].worker, None);

        let text = trace.to_text();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace, "text round-trip must be lossless:\n{text}");
    }

    #[test]
    fn cross_lane_order_does_not_matter() {
        // Start observed "before" its Spawn (different lanes drain in
        // arbitrary order): folding is order-insensitive.
        let events = [
            TraceEvent::Start { task: 2, worker: 1, at_ns: 5 },
            spawn(1, None, None),
            TraceEvent::End { task: 2, at_ns: 9 },
            spawn(2, Some(1), None),
        ];
        let trace = Trace::from_events(meta(), &events).unwrap();
        assert_eq!(trace.tasks[1].worker, Some(1));
    }

    #[test]
    fn exactly_once_violations_rejected() {
        let dup_spawn = [spawn(1, None, None), spawn(1, None, None)];
        assert!(Trace::from_events(meta(), &dup_spawn).is_err());

        let orphan_start =
            [spawn(1, None, None), TraceEvent::Start { task: 7, worker: 0, at_ns: 1 }];
        assert!(Trace::from_events(meta(), &orphan_start).is_err());

        let lost_end = [spawn(1, None, None), TraceEvent::Start { task: 1, worker: 0, at_ns: 1 }];
        assert!(Trace::from_events(meta(), &lost_end).is_err(), "unpaired start must fail");

        let double_end = [
            spawn(1, None, None),
            TraceEvent::Start { task: 1, worker: 0, at_ns: 1 },
            TraceEvent::End { task: 1, at_ns: 2 },
            TraceEvent::End { task: 1, at_ns: 3 },
        ];
        assert!(Trace::from_events(meta(), &double_end).is_err());

        let parent_after_child =
            [spawn(2, None, None), spawn(3, Some(4), None), spawn(4, None, None)];
        assert!(Trace::from_events(meta(), &parent_after_child).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Trace::parse("").is_err());
        assert!(
            Trace::parse("nws-trace v2\nmeta workers=1 places=1 seed=0 tasks=0 label=x\n").is_err()
        );
        assert!(Trace::parse("nws-trace v1\n").is_err(), "meta line required");
        assert!(
            Trace::parse("nws-trace v1\nmeta workers=1 places=1 seed=0 tasks=2 label=x\n").is_err(),
            "task count must match"
        );
        assert!(Trace::parse(
            "nws-trace v1\nmeta workers=1 places=1 seed=0 tasks=1 label=x\ntask id=1 parent=9 place=- worker=- start=0 end=0\n"
        )
        .is_err(), "unknown parent");
    }

    /// A one-task trace in the text format with the given task fields.
    fn one_task(fields: &str) -> String {
        format!("nws-trace v1\nmeta workers=1 places=1 seed=0 tasks=1 label=x\ntask id=1 parent=- place=- {fields}\n")
    }

    #[test]
    fn parse_rejects_a_reversed_bracket() {
        let e = Trace::parse(&one_task("worker=0 start=10 end=5")).unwrap_err();
        assert!(e.to_string().contains("ends before it starts"), "{e}");
        assert!(Trace::parse(&one_task("worker=0 start=5 end=10")).is_ok());
    }

    #[test]
    fn parse_rejects_a_bracket_on_an_unstarted_task() {
        let e = Trace::parse(&one_task("worker=- start=10 end=50")).unwrap_err();
        assert!(e.to_string().contains("unstarted task 1 has a bracket"), "{e}");
        let t = Trace::parse(&one_task("worker=- start=0 end=0")).unwrap();
        assert_eq!((t.num_started(), t.total_ns()), (0, 0));
    }

    #[test]
    fn parse_does_not_allocate_from_the_declared_count() {
        let huge =
            "nws-trace v1\nmeta workers=1 places=1 seed=0 tasks=1152921504606846976 label=x\n";
        let e = Trace::parse(huge).unwrap_err();
        assert!(e.to_string().contains("declares 1152921504606846976 tasks, found 0"), "{e}");
    }

    #[test]
    fn label_may_contain_spaces() {
        let trace = Trace {
            meta: TraceMeta { workers: 1, places: 1, seed: 0, label: "fib 16 quick".into() },
            tasks: vec![],
        };
        let back = Trace::parse(&trace.to_text()).unwrap();
        assert_eq!(back.meta.label, "fib 16 quick");
    }

    #[test]
    fn labels_with_line_breaks_are_refused() {
        // `to_text` ends the meta line with the label, so "a\nb" would leave
        // a stray line "b" and `lines()` would drop the '\r' of "a\r".
        for label in ["a\nb", "a\r"] {
            let meta = TraceMeta { workers: 1, places: 1, seed: 0, label: label.into() };
            let e = Trace::from_events(meta.clone(), &[]).unwrap_err();
            assert!(e.to_string().contains("line break"), "{e}");
            assert_eq!(Trace { meta, tasks: vec![] }.validate(), Err(e));
        }
        let text = "nws-trace v1\nmeta workers=1 places=1 seed=0 tasks=0 label=a\rb\n";
        let e = Trace::parse(text).unwrap_err();
        assert!(e.to_string().contains("line break"), "{e}");
    }

    #[test]
    fn sink_allocates_monotone_ids_and_drains_everything() {
        let sink = TraceSink::new(2);
        let a = sink.next_id();
        let b = sink.next_id();
        assert!(a >= 1 && b > a);
        sink.record(0, spawn(a, None, None));
        sink.record(1, spawn(b, Some(a), None));
        sink.record(sink.external_lane(), TraceEvent::Start { task: a, worker: 0, at_ns: 1 });
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }
}

nws_sync::model_only! {
    #[cfg(test)]
    mod model_tests;
}
