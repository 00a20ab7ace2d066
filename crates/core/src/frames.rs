//! Lazy join promotion: the owner-only stack of hidden `join` frames.
//!
//! An unhinted [`join`](crate::join) does not push its second branch onto
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
//! take is older than anything still hidden (DESIGN.md §5).
//!
//! Only the owner touches the stack, so it is plain [`Cell`]s: a fork costs
//! a few stores, with no atomic, no fence and no allocation.

use nws_deque::TheWorker;
use nws_sync::ModelFlag;
use std::cell::Cell;

/// How many frames one worker can hide at once. A join forked while the
/// stack is full pushes its branch eagerly, as a hinted join does.
const FRAME_CAPACITY: usize = 64;

/// The hidden-frame stack of one worker (see the module docs).
pub(crate) struct FrameStack<T> {
    slots: [Cell<Option<T>>; FRAME_CAPACITY],
    /// Number of recorded frames: the index the next fork records at.
    top: Cell<usize>,
    /// Frames below this index have been pushed onto the deque.
    promoted: Cell<usize>,
    /// Model-only seeded bug: promotion pushes a frame but does not advance
    /// the promoted mark, so the frame's join also runs it inline.
    stale_mark: ModelFlag,
}

impl<T: Copy> FrameStack<T> {
    pub(crate) fn new() -> Self {
        Self::with_flag(ModelFlag::off())
    }

    fn with_flag(stale_mark: ModelFlag) -> Self {
        FrameStack {
            slots: std::array::from_fn(|_| Cell::new(None)),
            top: Cell::new(0),
            promoted: Cell::new(0),
            stale_mark,
        }
    }

    /// Records a hidden frame and returns its index, or `None` when the
    /// stack is full.
    #[inline]
    pub(crate) fn record(&self, frame: T) -> Option<usize> {
        let top = self.top.get();
        self.slots.get(top)?.set(Some(frame));
        self.top.set(top + 1);
        Some(top)
    }

    /// Removes the newest frame, which must be `index`. Returns `true` if it
    /// was still hidden (its job is the caller's to run in place) and
    /// `false` if it was promoted (its job is on the deque or taken).
    #[inline]
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

    /// Pushes the oldest hidden frame onto `deque`. Returns `false` if no
    /// frame is hidden or the deque is full.
    #[inline]
    pub(crate) fn promote_oldest(&self, deque: &TheWorker<T>) -> bool {
        let next = self.promoted.get();
        if next == self.top.get() {
            return false;
        }
        let frame = self.slots[next].get().expect("frames below top are recorded");
        if deque.push(frame).is_err() {
            return false;
        }
        if !self.stale_mark.get() {
            self.promoted.set(next + 1);
        }
        true
    }

    /// Promotes the oldest hidden frame if `deque` is empty (a racy
    /// snapshot; thieves can only make it emptier). Returns whether it did.
    #[inline]
    pub(crate) fn promote_if_empty(&self, deque: &TheWorker<T>) -> bool {
        deque.is_empty() && self.promote_oldest(deque)
    }

    /// Frames recorded and not yet promoted.
    #[inline]
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
    impl<T: Copy> FrameStack<T> {
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
    use nws_deque::the_deque;

    #[test]
    fn frames_promote_oldest_first_and_resolve_newest_first() {
        let (deque, _stealer) = the_deque::<u32>(8);
        let frames = FrameStack::new();
        let idx: Vec<usize> = (1..=3).map(|v| frames.record(v).unwrap()).collect();
        assert_eq!(idx, [0, 1, 2]);
        assert!(frames.promote_oldest(&deque));
        assert_eq!((frames.hidden(), deque.pop()), (2, Some(1)));
        assert!(frames.resolve(2), "frame 2 was never promoted");
        assert!(frames.resolve(1), "frame 1 was never promoted");
        assert!(!frames.resolve(0), "frame 0 was promoted");
        assert_eq!((frames.depth(), frames.hidden()), (0, 0));
    }

    #[test]
    fn full_stack_refuses_and_full_deque_keeps_frames_hidden() {
        let (deque, _stealer) = the_deque::<usize>(1);
        let frames = FrameStack::new();
        for v in 0..FRAME_CAPACITY {
            assert_eq!(frames.record(v), Some(v));
        }
        assert_eq!(frames.record(FRAME_CAPACITY), None);
        assert!(frames.promote_oldest(&deque));
        assert!(!frames.promote_oldest(&deque), "a capacity-1 deque is full");
        assert_eq!(frames.hidden(), FRAME_CAPACITY - 1);
    }
}
