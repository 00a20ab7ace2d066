//! The [`ForkJoin`] instance that turns a kernel's recursion into its
//! simulator DAG.

use crate::fork::ForkJoin;
use nws_sim::{Dag, DagBuilder, Strand};
use nws_topology::Place;

/// Walks a recursion into [`DagBuilder`] frames. Each branch of a `join`
/// or `join4` becomes a child frame with its parent's hint, and one sync
/// follows the branches. `join_at(a, b, place)` is encoded the same way
/// except that `b`'s frame carries `place` (the runtime's rule: `a` runs
/// where its parent runs); [`Place::ANY`] hints nothing, so both frames
/// inherit. `join4_at` is the trait's three nested `join_at`s, and
/// `unhinted` walks its body with the frame's hint set to `ANY`. A `leaf`
/// appends the strand its `describe` returns; its body never runs, so a
/// walk reads no operand data. A `run_leaf` runs its body too, so a
/// recursion whose forks depend on its data (hull's scans) reads just that
/// data.
pub(crate) struct Record<M> {
    /// The builder; its innermost open frame is the frame being walked.
    pub(crate) builder: DagBuilder,
    model: M,
}

impl<M> Record<M> {
    /// Walks `body` as the top-level frame hinted at `place` into
    /// `builder`, whose regions `model` names, and returns the DAG.
    pub(crate) fn dag(
        builder: DagBuilder,
        model: M,
        place: Place,
        body: impl FnOnce(&mut Self),
    ) -> Dag {
        let mut rec = Record { builder, model };
        rec.frame(place, body);
        rec.builder.build()
    }

    /// Walks `body` as one frame hinted at `place`, spawned in the frame
    /// being walked.
    pub(crate) fn frame(&mut self, place: Place, body: impl FnOnce(&mut Self)) {
        self.builder.open(place);
        body(self);
        self.builder.close();
    }

    /// The hint of the frame being walked.
    fn hint(&mut self) -> Place {
        *self.builder.place_mut()
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
        self.frame(hint, a);
        self.frame(if place.is_any() { hint } else { place }, b);
        self.builder.sync();
    }

    fn join4(
        &mut self,
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        c: impl FnOnce(&mut Self) + Send,
        d: impl FnOnce(&mut Self) + Send,
    ) {
        let hint = self.hint();
        self.frame(hint, a);
        self.frame(hint, b);
        self.frame(hint, c);
        self.frame(hint, d);
        self.builder.sync();
    }

    fn unhinted(&mut self, body: impl FnOnce(&mut Self)) {
        let hint = std::mem::replace(self.builder.place_mut(), Place::ANY);
        body(self);
        *self.builder.place_mut() = hint;
    }

    fn leaf(&mut self, describe: impl FnOnce(&M) -> Strand, _body: impl FnOnce()) {
        let strand = describe(&self.model);
        self.builder.strand(strand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::Serial;
    use nws_sim::{FrameId, Step};
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
        let dag = Record::dag(DagBuilder::new(), 5, Place(1), |f| walk(f, &log));
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
    fn unhinted_drops_the_frame_hint_for_its_body_only() {
        let (log, _ran) = channel();
        let dag = Record::dag(DagBuilder::new(), 0, Place(1), |f| {
            f.unhinted(|f| {
                leaf(f, 1, &log);
                f.join(|f| leaf(f, 2, &log), |f| leaf(f, 3, &log));
            });
            f.join(|f| leaf(f, 4, &log), |f| leaf(f, 5, &log));
        });
        // The body's strand stays in the root frame; its fork's frames are
        // unhinted, and the fork after it inherits place 1 again.
        assert_eq!(steps(&dag, 4), "s1 f0 f1 sync f2 f3 sync");
        let places: Vec<_> = (0..4).map(|f| dag.frame(FrameId(f)).place).collect();
        assert_eq!(places, [Place::ANY, Place::ANY, Place(1), Place(1)]);
        assert_eq!(dag.frame(FrameId(4)).place, Place(1));
    }

    #[test]
    fn run_leaf_runs_its_body_and_records_its_strand() {
        let dag = Record::dag(DagBuilder::new(), 0, Place(1), |f| {
            let x = f.run_leaf(|_| Strand::compute(7), || 6);
            f.leaf(|_| Strand::compute(x), || panic!("Record runs no leaf body"));
        });
        assert_eq!(steps(&dag, 0), "s7 s6");
        assert_eq!(Serial.run_leaf(|_: &u64| Strand::compute(7), || 6), 6);
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
