//! Lazy join promotion: the owner-only stack of hidden `join` frames.
//!
//! An unhinted [`join`](fn@crate::join) does not push its second branch onto
//! the THE deque. It records the branch's job here, runs the first branch,
//! and then runs the second in place unless the frame was promoted
//! meanwhile. Promotion is done by the owning worker only, through the
//! unchanged deque protocol: when its deque is empty (at a join's fork and
//! exit, and in [`split_wanted`](crate::split_wanted)) it pushes the
//! *oldest* hidden frame, and before it blocks or pushes eagerly it pushes
//! every hidden frame. A promoted frame ends the way an eager join does,
//! by popping its job back or waiting for the thief.
//!
//! Frames resolve newest-first and promote oldest-first, so the promoted
//! frames are always a prefix `[0, promoted)` of the recorded ones
//! `[0, top)`, and the deque stays oldest-at-head: anything a thief can
//! take is older than anything still hidden (DESIGN.md §3, "Work-first
//! joins").
//!
//! Only the owner touches the stack, so it is plain [`Cell`]s, with no
//! atomic, no fence and no allocation. A slot holds the two words of a
//! [`RawJob`]: a lazily forked job's place is always `ANY`. Its trace id
//! goes to a side array, written only when it is nonzero, i.e. only in a
//! pool that records a trace (every fork of such a pool has an id, and no
//! fork of any other pool does). Promotion rebuilds the full [`JobRef`]
//! from both. So an unrecorded fork stores two words and `top`.

use crate::job::{JobRef, RawJob};
use nws_deque::TheWorker;
use nws_sync::ModelFlag;
use nws_topology::Place;
use std::cell::Cell;

/// How many frames one worker can hide at once. A join forked while the
/// stack is full pushes its branch eagerly, as a hinted join does.
const FRAME_CAPACITY: usize = 64;

/// The hidden-frame stack of one worker (see the module docs).
pub(crate) struct FrameStack {
    slots: [Cell<Option<RawJob>>; FRAME_CAPACITY],
    /// Trace id of the frame in the same slot; written only when nonzero.
    traces: [Cell<u64>; FRAME_CAPACITY],
    /// Number of recorded frames: the index the next fork records at.
    top: Cell<usize>,
    /// Frames below this index have been pushed onto the deque.
    promoted: Cell<usize>,
    /// Model-only seeded bug: promotion pushes a frame but does not advance
    /// the promoted mark, so the frame's join also runs it inline.
    stale_mark: ModelFlag,
}

impl FrameStack {
    pub(crate) fn new() -> Self {
        Self::with_flag(ModelFlag::off())
    }

    fn with_flag(stale_mark: ModelFlag) -> Self {
        FrameStack {
            slots: std::array::from_fn(|_| Cell::new(None)),
            traces: std::array::from_fn(|_| Cell::new(0)),
            top: Cell::new(0),
            promoted: Cell::new(0),
            stale_mark,
        }
    }

    /// Records an unhinted job as a hidden frame and returns its index, or
    /// `None` when the stack is full.
    #[inline(always)]
    pub(crate) fn record(&self, job: JobRef) -> Option<usize> {
        debug_assert!(job.place().index().is_none(), "only unhinted joins fork lazily");
        let top = self.top.get();
        let trace = job.trace();
        self.slots.get(top)?.set(Some(job.raw()));
        if trace != 0 {
            self.traces[top].set(trace);
        }
        self.top.set(top + 1);
        Some(top)
    }

    /// Removes the newest frame, which must be `index`. Returns `true` if it
    /// was still hidden (its job is the caller's to run in place) and
    /// `false` if it was promoted (its job is on the deque or taken).
    #[inline(always)]
    pub(crate) fn resolve(&self, index: usize) -> bool {
        debug_assert_eq!(self.top.get(), index + 1, "join frames resolve newest-first");
        self.top.set(index);
        if self.promoted.get() > index {
            self.promoted.set(index);
            false
        } else {
            true
        }
    }

    /// Pushes the oldest hidden frame onto `deque`, rebuilt into its full
    /// [`JobRef`]. Returns `false` if no frame is hidden or the deque is
    /// full.
    #[inline]
    pub(crate) fn promote_oldest(&self, deque: &TheWorker<JobRef>) -> bool {
        let next = self.promoted.get();
        if next == self.top.get() {
            return false;
        }
        let frame = self.slots[next].get().expect("frames below top are recorded");
        if deque.push(frame.with(Place::ANY, self.traces[next].get())).is_err() {
            return false;
        }
        if !self.stale_mark.get() {
            self.promoted.set(next + 1);
        }
        true
    }

    /// Frames recorded and not yet promoted.
    #[inline(always)]
    pub(crate) fn hidden(&self) -> usize {
        self.top.get() - self.promoted.get()
    }

    /// Frames recorded and not yet resolved, hidden or promoted.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.top.get()
    }
}

nws_sync::model_only! {
    #[cfg(test)]
    impl FrameStack {
        /// The seeded bug the model tier must catch: promotion leaves the
        /// promoted mark where it was.
        pub(crate) fn stale_mark_for_model() -> Self {
            Self::with_flag(ModelFlag::for_model(true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use nws_deque::the_deque;

    /// A job the tests only compare by address; it never runs. Not
    /// zero-sized, so each branch has its own address.
    struct Branch {
        _byte: u8,
    }

    impl Job for Branch {
        // SAFETY: never called; the tests only compare refs by address.
        unsafe fn execute(_: *const ()) {
            unreachable!("frame tests never run a branch");
        }
    }

    fn job_ref(branch: &Branch, trace: u64) -> JobRef {
        // SAFETY: the tests compare refs by address and never execute one.
        let mut job = unsafe { JobRef::new(branch, Place::ANY) };
        job.set_trace(trace);
        job
    }

    #[test]
    fn frames_promote_oldest_first_and_resolve_newest_first() {
        let branches = [Branch { _byte: 1 }, Branch { _byte: 2 }, Branch { _byte: 3 }];
        let (deque, _stealer) = the_deque::<JobRef>(8);
        let frames = FrameStack::new();
        let idx: Vec<usize> =
            branches.iter().map(|b| frames.record(job_ref(b, 0)).unwrap()).collect();
        assert_eq!(idx, [0, 1, 2]);
        assert!(frames.promote_oldest(&deque));
        assert_eq!(frames.hidden(), 2);
        assert_eq!(deque.pop().map(|j| j.id()), Some(job_ref(&branches[0], 0).id()));
        assert!(frames.resolve(2), "frame 2 was never promoted");
        assert!(frames.resolve(1), "frame 1 was never promoted");
        assert!(!frames.resolve(0), "frame 0 was promoted");
        assert_eq!((frames.depth(), frames.hidden()), (0, 0));
    }

    #[test]
    fn full_stack_refuses_and_full_deque_keeps_frames_hidden() {
        let branch = Branch { _byte: 0 };
        let (deque, _stealer) = the_deque::<JobRef>(1);
        let frames = FrameStack::new();
        for v in 0..FRAME_CAPACITY {
            assert_eq!(frames.record(job_ref(&branch, 0)), Some(v));
        }
        assert_eq!(frames.record(job_ref(&branch, 0)), None);
        assert!(frames.promote_oldest(&deque));
        assert!(!frames.promote_oldest(&deque), "a capacity-1 deque is full");
        assert_eq!(frames.hidden(), FRAME_CAPACITY - 1);
    }

    #[test]
    fn promotion_rebuilds_the_ref_with_its_trace_id() {
        let branches = [Branch { _byte: 1 }, Branch { _byte: 2 }];
        let (deque, _stealer) = the_deque::<JobRef>(4);
        let untraced = FrameStack::new();
        untraced.record(job_ref(&branches[0], 0)).unwrap();
        assert!(untraced.promote_oldest(&deque));
        let job = deque.pop().expect("promoted");
        assert_eq!(
            (job.id(), job.place(), job.trace()),
            (job_ref(&branches[0], 0).id(), Place::ANY, 0),
            "an untraced frame promotes unhinted and untraced"
        );
        let traced = FrameStack::new();
        traced.record(job_ref(&branches[0], 7)).unwrap();
        traced.record(job_ref(&branches[1], 8)).unwrap();
        assert!(traced.promote_oldest(&deque) && traced.promote_oldest(&deque));
        let ids: Vec<(*const (), u64)> =
            std::iter::from_fn(|| deque.pop()).map(|j| (j.id(), j.trace())).collect();
        assert_eq!(
            ids,
            [(job_ref(&branches[1], 0).id(), 8), (job_ref(&branches[0], 0).id(), 7)],
            "a traced frame carries its own id through promotion"
        );
    }
}
