//! One fork-join vocabulary for the kernels' recursions.
//!
//! A kernel written against [`ForkJoin`] is one recursion with three
//! readings: [`Serial`] runs it as the serial elision (`TS`), [`Pool`] on
//! the `numa_ws` runtime, and [`Record`](crate::record::Record) walks it
//! into the simulator DAG. `Record` allocates, so it lives in another file:
//! the hot-path manifest checks every fn named `join`, `join_at`, `join4`,
//! `join4_at`, `unhinted`, `leaf` or `run_leaf` in this one.

use nws_sim::Strand;
use nws_topology::Place;

/// The fork-join operations a kernel's recursion calls. `M` is the DAG
/// model a leaf describes itself against; only `Record` holds one.
pub(crate) trait ForkJoin<M> {
    /// Runs `a` and `b`, in parallel where the instance can.
    fn join(&mut self, a: impl FnOnce(&mut Self) + Send, b: impl FnOnce(&mut Self) + Send);

    /// Runs `a` and `b` as [`join`](Self::join) does, hinting that `b` runs
    /// at `place` (the paper's `@p`). `a` keeps the caller's place, and
    /// [`Place::ANY`] hints nothing.
    #[inline]
    fn join_at(
        &mut self,
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        _place: Place,
    ) {
        self.join(a, b);
    }

    /// Runs four branches as `join(join(a, b), join(c, d))`.
    fn join4(
        &mut self,
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        c: impl FnOnce(&mut Self) + Send,
        d: impl FnOnce(&mut Self) + Send,
    ) {
        self.join(|f| f.join(a, b), |f| f.join(c, d));
    }

    /// Runs four branches as [`numa_ws::join4_at`] composes them,
    /// `join_at(join_at(a, b, places[1]), join_at(c, d, places[3]), places[2])`:
    /// `a` keeps the caller's place and `places[0]` hints nothing.
    #[inline]
    fn join4_at(
        &mut self,
        places: [Place; 4],
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        c: impl FnOnce(&mut Self) + Send,
        d: impl FnOnce(&mut Self) + Send,
    ) {
        let [_, p1, p2, p3] = places;
        self.join_at(move |f| f.join_at(a, b, p1), move |f| f.join_at(c, d, p3), p2);
    }

    /// Runs `body` inline, in the caller's frame, as a call hinted
    /// [`Place::ANY`]: the forks it makes do not inherit the caller's hint.
    /// `Serial` and `Pool` keep no hint, so they just call `body`; `Record`
    /// drops its frame's hint for the call (cilksort's final merge).
    #[inline]
    fn unhinted(&mut self, body: impl FnOnce(&mut Self)) {
        body(self);
    }

    /// A sequential leaf: `body` is its computation and `describe` its
    /// cost and memory footprint as a simulator strand.
    #[inline]
    fn leaf(&mut self, _describe: impl FnOnce(&M) -> Strand, body: impl FnOnce()) {
        body();
    }

    /// A sequential leaf whose body every instance runs, `Record` too, and
    /// whose result it returns: a data step the fork tree depends on
    /// (hull's scans decide which points survive).
    #[inline]
    fn run_leaf<R>(&mut self, describe: impl FnOnce(&M) -> Strand, body: impl FnOnce() -> R) -> R {
        self.leaf(describe, || {});
        body()
    }
}

/// The serial elision: every fork runs its branches in order.
pub(crate) struct Serial;

impl<M> ForkJoin<M> for Serial {
    #[inline]
    fn join(&mut self, a: impl FnOnce(&mut Self) + Send, b: impl FnOnce(&mut Self) + Send) {
        a(self);
        b(self);
    }
}

/// The pool run: [`numa_ws::join`] and [`numa_ws::join4`], and
/// [`numa_ws::join_at`] for a hinted fork. Call inside
/// [`Pool::install`](numa_ws::Pool::install).
pub(crate) struct Pool;

impl<M> ForkJoin<M> for Pool {
    #[inline]
    fn join(&mut self, a: impl FnOnce(&mut Self) + Send, b: impl FnOnce(&mut Self) + Send) {
        numa_ws::join(move || a(&mut Pool), move || b(&mut Pool));
    }

    #[inline]
    fn join_at(
        &mut self,
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        place: Place,
    ) {
        numa_ws::join_at(move || a(&mut Pool), move || b(&mut Pool), place);
    }

    #[inline]
    fn join4(
        &mut self,
        a: impl FnOnce(&mut Self) + Send,
        b: impl FnOnce(&mut Self) + Send,
        c: impl FnOnce(&mut Self) + Send,
        d: impl FnOnce(&mut Self) + Send,
    ) {
        numa_ws::join4(
            move || a(&mut Pool),
            move || b(&mut Pool),
            move || c(&mut Pool),
            move || d(&mut Pool),
        );
    }
}
