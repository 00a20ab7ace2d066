//! The [`ForkJoin`] instance that turns a kernel's recursion into its
//! simulator DAG.

use crate::fork::ForkJoin;
use nws_sim::{DagBuilder, FrameId, Step, Strand};
use nws_topology::Place;

/// Walks a recursion into [`DagBuilder`] frames. Each branch of a `join`
/// or `join4` becomes a child frame with its parent's hint, and one sync
/// follows the branches. `join_at(a, b, place)` is encoded the same way
/// except that `b`'s frame carries `place` (the runtime's rule: `a` runs
/// where its parent runs); [`Place::ANY`] hints nothing, so both frames
/// inherit. `join4_at` is the trait's three nested `join_at`s. A `leaf`
/// appends the strand its `describe` returns; its body never runs, so a
/// walk reads no operand data.
pub(crate) struct Record<M> {
    /// The builder, for frames a kernel adds around its walks.
    pub(crate) builder: DagBuilder,
    model: M,
    /// The frames being walked, innermost last: hint and steps so far.
    open: Vec<(Place, Vec<Step>)>,
}

impl<M> Record<M> {
    /// Records into `builder`, whose regions `model` names.
    pub(crate) fn new(builder: DagBuilder, model: M) -> Self {
        Record { builder, model, open: Vec::new() }
    }

    /// Walks `body` as one frame hinted at `place` and returns its id.
    pub(crate) fn frame(&mut self, place: Place, body: impl FnOnce(&mut Self)) -> FrameId {
        self.open.push((place, Vec::new()));
        body(self);
        let (place, steps) = self.open.pop().expect("the frame pushed above");
        self.builder.push_frame(place, steps)
    }

    fn push(&mut self, step: Step) {
        self.open.last_mut().expect("fork-join call outside Record::frame").1.push(step);
    }

    /// The hint of the frame being walked.
    fn hint(&self) -> Place {
        self.open.last().expect("fork-join call outside Record::frame").0
    }

    fn spawn(&mut self, hint: Place, branch: impl FnOnce(&mut Self)) {
        let child = self.frame(hint, branch);
        self.push(Step::Spawn(child));
    }
}

impl<M> ForkJoin<M> for Record<M> {
    fn join(&mut self, a: impl FnOnce(&mut Self) + Send, b: impl FnOnce(&mut Self) + Send) {
        self.join_at(a, b, Place::ANY);
    }

    fn join_at(
        &mut self,
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        place: Place,
    ) {
        let hint = self.hint();
        self.spawn(hint, a);
        self.spawn(if place.is_any() { hint } else { place }, b);
        self.push(Step::Sync);
    }

    fn join4(
        &mut self,
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        c: impl FnOnce(&mut Self) + Send,
        d: impl FnOnce(&mut Self) + Send,
    ) {
        let hint = self.hint();
        self.spawn(hint, a);
        self.spawn(hint, b);
        self.spawn(hint, c);
        self.spawn(hint, d);
        self.push(Step::Sync);
    }

    fn leaf(&mut self, describe: impl FnOnce(&M) -> Strand, _body: impl FnOnce()) {
        let strand = describe(&self.model);
        self.push(Step::Strand(strand));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::Serial;
    use nws_sim::Dag;
    use std::sync::mpsc::{channel, Sender};

    /// A leaf of `cycles` that logs `cycles` when its body runs.
    fn leaf<F: ForkJoin<u64>>(f: &mut F, cycles: u64, log: &Sender<u64>) {
        f.leaf(|_| Strand::compute(cycles), || log.send(cycles).unwrap());
    }

    /// A leaf, a `join4` whose first branch is a `join` and whose third is
    /// empty, a `join_at` hinted at place 2 whose second branch is a
    /// `join_at` hinted `ANY`, a `join4_at` hinted `[3, 3, 0, ANY]`, then a
    /// leaf that reads the model.
    fn walk<F: ForkJoin<u64>>(f: &mut F, log: &Sender<u64>) {
        leaf(f, 10, log);
        f.join4(
            |f| f.join(|f| leaf(f, 1, log), |f| leaf(f, 2, log)),
            |f| leaf(f, 3, log),
            |_| {},
            |f| leaf(f, 4, log),
        );
        f.join_at(
            |f| leaf(f, 6, log),
            |f| f.join_at(|f| leaf(f, 7, log), |f| leaf(f, 8, log), Place::ANY),
            Place(2),
        );
        f.join4_at(
            [Place(3), Place(3), Place(0), Place::ANY],
            |f| leaf(f, 11, log),
            |f| leaf(f, 12, log),
            |f| leaf(f, 13, log),
            |f| leaf(f, 14, log),
        );
        f.leaf(|m| Strand::compute(*m), || log.send(5).unwrap());
    }

    fn steps(dag: &Dag, f: usize) -> String {
        dag.frame(FrameId(f))
            .steps
            .iter()
            .map(|s| match s {
                Step::Strand(s) => format!("s{}", s.cycles),
                Step::Spawn(c) => format!("f{}", c.0),
                Step::Sync => "sync".to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn record_emits_one_child_frame_per_branch_then_a_sync() {
        let (log, ran) = channel();
        let mut rec = Record::new(DagBuilder::new(), 5);
        let root = rec.frame(Place(1), |f| walk(f, &log));
        let dag = rec.builder.build(root);
        dag.validate().unwrap();
        assert_eq!(ran.try_iter().count(), 0, "Record must not run leaf bodies");
        // Children close before their parents, so ids follow the walk's
        // post-order.
        // The hinted `join_at`'s second branch (frame 9) carries place 2,
        // and the `ANY` fork inside it (frames 7 and 8) inherits that; its
        // first branch (frame 6) inherits the root's place 1. The
        // `join4_at` nests as `numa_ws::join4_at` does: its halves (frames
        // 12 and 15) carry the root's place and place 0, `b` (frame 11)
        // place 3, and `a` inherits, as does the `ANY`-hinted `d`; the
        // first hint is unused.
        let expect = [
            ("s1", 1),
            ("s2", 1),
            ("f0 f1 sync", 1),
            ("s3", 1),
            ("", 1),
            ("s4", 1),
            ("s6", 1),
            ("s7", 2),
            ("s8", 2),
            ("f7 f8 sync", 2),
            ("s11", 1),
            ("s12", 3),
            ("f10 f11 sync", 1),
            ("s13", 0),
            ("s14", 0),
            ("f13 f14 sync", 0),
            ("s10 f2 f3 f4 f5 sync f6 f9 sync f12 f15 sync s5", 1),
        ];
        assert_eq!(dag.num_frames(), expect.len());
        for (f, (want, place)) in expect.iter().enumerate() {
            assert_eq!(steps(&dag, f), *want, "frame {f}");
            assert_eq!(dag.frame(FrameId(f)).place, Place(*place), "frame {f}");
        }
        assert_eq!(dag.root(), FrameId(16));
        // A 2-way fork is 2 DAG spawns, a 4-way fork 4, and a `join4_at`
        // three 2-way forks.
        assert_eq!(dag.num_spawns(), 16);
        assert_eq!(dag.work(), 96);
    }

    #[test]
    fn serial_runs_every_leaf_body_in_program_order() {
        let (log, ran) = channel();
        walk(&mut Serial, &log);
        assert_eq!(
            ran.try_iter().collect::<Vec<_>>(),
            [10, 1, 2, 3, 4, 6, 7, 8, 11, 12, 13, 14, 5]
        );
    }
}
